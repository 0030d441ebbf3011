package pool

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestEachRunsEveryIndexOnceOnBoundedWorkers(t *testing.T) {
	for _, n := range []int{0, 1, 1000} {
		for _, workers := range []int{-1, 1, 2, n, 4 * n} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				limit := max(1, min(workers, n))
				runs := make([]atomic.Int32, n)
				busy := make([]atomic.Bool, limit)
				err := Each(context.Background(), n, workers, func(w, i int) error {
					if w < 0 || w >= limit {
						t.Errorf("index %d ran on worker %d, want [0, %d)", i, w, limit)
						return nil
					}
					if busy[w].Swap(true) {
						t.Errorf("worker %d runs two calls at once", w)
					}
					runs[i].Add(1)
					busy[w].Store(false)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Fatalf("index %d ran %d times", i, got)
					}
				}
			})
		}
	}
}

func TestEachHandsOutIndicesInIncreasingOrder(t *testing.T) {
	var order []int
	if err := Each(context.Background(), 50, 1, func(_, i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

// The returned error does not depend on which failure finishes first:
// index 1's error is held back until index 5 has failed, and the other
// way round, and index 1's wins both times.
func TestEachLowestIndexErrorWins(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, lowFirst := range []bool{true, false} {
		first := make(chan struct{})
		err := Each(context.Background(), 8, 8, func(_, i int) error {
			switch {
			case i == 1 && lowFirst, i == 5 && !lowFirst:
				defer close(first)
			case i == 1, i == 5:
				<-first
			default:
				return nil
			}
			if i == 1 {
				return errLow
			}
			return errHigh
		})
		if err != errLow {
			t.Errorf("lowFirst=%v: got %v, want the lower index's error", lowFirst, err)
		}
	}
}

func TestEachGenuineErrorOutranksCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	err := Each(ctx, 100, 2, func(_, i int) error {
		switch i {
		case 0:
			return fmt.Errorf("rank 0: %w", context.Canceled)
		case 3:
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the genuine error", err)
	}
}

func TestEachReportsAContextErrorOfFnAlone(t *testing.T) {
	err := Each(context.Background(), 4, 2, func(_, i int) error {
		if i == 2 {
			return context.DeadlineExceeded
		}
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want fn's own deadline error", err)
	}
}

func TestEachCancelStopsHandingOutIndices(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 1000
	ran := make([]atomic.Bool, n)
	err := Each(ctx, n, 4, func(_, i int) error {
		ran[i].Store(true)
		switch {
		case i == 10:
			cancel()
		case i > 10:
			<-ctx.Done() // hold the other workers where they are
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Each of the other three workers was inside at most one later
	// index when index 10 cancelled; none may claim another.
	for i := 10 + 4; i < n; i++ {
		if ran[i].Load() {
			t.Fatalf("index %d started after cancellation at index 10", i)
		}
	}

	if err := Each(ctx, n, 4, func(_, i int) error {
		t.Errorf("index %d started under a cancelled context", i)
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled before the call: got %v", err)
	}
}

func TestEachPanicBecomesThatIndexsError(t *testing.T) {
	const n = 64
	var ran atomic.Int32
	err := Each(context.Background(), n, 4, func(_, i int) error {
		ran.Add(1)
		if i == 7 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want a *PanicError", err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic error %+v: want the panic value and a stack", pe)
	}
	if got := ran.Load(); got != n {
		t.Fatalf("%d of %d indices ran: a panic must not stop the others", got, n)
	}
}
