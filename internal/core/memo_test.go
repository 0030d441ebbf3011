package core

import (
	"context"
	"runtime"
	"testing"
)

// TestMemoEvictedInFlightReachesWaiters: an entry pushed out of the
// bound while its computation runs still answers the callers already
// waiting on it; it is simply not cached afterwards.
func TestMemoEvictedInFlightReachesWaiters(t *testing.T) {
	m := NewMemo[string, int](1)
	ctx := context.Background()
	running, release := make(chan struct{}), make(chan struct{})
	answers := make(chan int, 2)
	go func() {
		v, _, _ := m.Get(ctx, "a", func() (int, error) {
			close(running)
			<-release
			return 1, nil
		})
		answers <- v
	}()
	<-running
	go func() {
		v, paid, _ := m.Get(ctx, "a", func() (int, error) { return -1, nil })
		if paid {
			v = -2
		}
		answers <- v
	}()
	for m.Stats().Hits == 0 { // the follower has joined
		runtime.Gosched()
	}
	if _, paid, _ := m.Get(ctx, "b", func() (int, error) { return 2, nil }); !paid {
		t.Fatal("b was not computed")
	}
	if s := m.Stats(); s.Evictions != 1 || s.Entries != 1 {
		t.Fatalf("after b: %+v, want in-flight a evicted", s)
	}
	close(release)
	if a, b := <-answers, <-answers; a != 1 || b != 1 {
		t.Fatalf("waiters on the evicted flight got %d and %d, want 1 and 1", a, b)
	}
	if _, paid, _ := m.Get(ctx, "a", func() (int, error) { return 1, nil }); !paid {
		t.Fatal("evicted a was still cached")
	}
}

func TestMemoHitDoesNotAllocate(t *testing.T) {
	m := NewMemo[string, *Capture](4)
	ctx := context.Background()
	fn := func() (*Capture, error) { return &Capture{}, nil }
	m.Get(ctx, "k", fn)
	if n := testing.AllocsPerRun(100, func() { m.Get(ctx, "k", fn) }); n != 0 {
		t.Fatalf("hit allocates %v times, want 0", n)
	}
}
