package flight

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// follow starts a caller that must join the group's in-flight call
// for "k" rather than lead one, and returns once it has joined.
func follow(t *testing.T, g *Group[string, int], ctx context.Context, fn func() (int, error)) <-chan result {
	t.Helper()
	before := g.Joins()
	out := make(chan result, 1)
	go func() {
		v, shared, err := g.Do(ctx, "k", fn)
		out <- result{v, shared, err}
	}()
	for g.Joins() == before {
		select {
		case r := <-out:
			t.Fatalf("caller finished without joining the flight: %+v", r)
		default:
			runtime.Gosched()
		}
	}
	return out
}

type result struct {
	v      int
	shared bool
	err    error
}

// lead starts a leader for "k" whose fn blocks until release is
// closed, and returns once fn is running.
func lead(g *Group[string, int], ctx context.Context, release <-chan struct{}, fn func() (int, error)) <-chan result {
	running := make(chan struct{})
	out := make(chan result, 1)
	go func() {
		v, shared, err := g.Do(ctx, "k", func() (int, error) {
			close(running)
			<-release
			return fn()
		})
		out <- result{v, shared, err}
	}()
	<-running
	return out
}

func TestLeaderCancelledLiveFollowerRerunsOnce(t *testing.T) {
	var g Group[string, int]
	lctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	leader := lead(&g, lctx, release, func() (int, error) { return 0, lctx.Err() })

	var reruns atomic.Int32
	follower := follow(t, &g, context.Background(), func() (int, error) {
		reruns.Add(1)
		return 7, nil
	})
	cancel()
	close(release)

	if r := <-leader; !errors.Is(r.err, context.Canceled) || r.shared {
		t.Fatalf("leader = %+v, want its own cancellation, not shared", r)
	}
	if r := <-follower; r.err != nil || r.v != 7 || r.shared {
		t.Fatalf("follower = %+v, want a fresh 7 it led itself", r)
	}
	if n := reruns.Load(); n != 1 {
		t.Fatalf("follower re-ran fn %d times, want exactly 1", n)
	}
}

func TestFollowerCancelledLeaderCompletes(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	leader := lead(&g, context.Background(), release, func() (int, error) { return 3, nil })

	fctx, cancel := context.WithCancel(context.Background())
	follower := follow(t, &g, fctx, func() (int, error) {
		t.Error("cancelled follower ran fn")
		return 0, nil
	})
	cancel()
	if r := <-follower; !errors.Is(r.err, context.Canceled) || !r.shared {
		t.Fatalf("follower = %+v, want its own cancellation while following", r)
	}
	close(release)
	if r := <-leader; r.err != nil || r.v != 3 {
		t.Fatalf("leader = %+v, want 3", r)
	}
}

func TestLeaderFailureReachesFollowers(t *testing.T) {
	boom := errors.New("boom")
	for name, tc := range map[string]struct {
		fn   func() (int, error)
		want error
	}{
		"error": {func() (int, error) { return 0, boom }, boom},
		"panic": {func() (int, error) { panic("kaboom") }, ErrLeaderPanicked},
	} {
		t.Run(name, func(t *testing.T) {
			var g Group[string, int]
			release := make(chan struct{})
			running := make(chan struct{})
			leaderDone := make(chan any, 1)
			go func() {
				defer func() { leaderDone <- recover() }()
				g.Do(context.Background(), "k", func() (int, error) {
					close(running)
					<-release
					return tc.fn()
				})
			}()
			<-running
			follower := follow(t, &g, context.Background(), nil)
			close(release)
			if r := <-follower; !errors.Is(r.err, tc.want) || !r.shared {
				t.Fatalf("follower = %+v, want shared %v", r, tc.want)
			}
			if v := <-leaderDone; (v != nil) != (name == "panic") {
				t.Fatalf("leader recovered %v", v)
			}
			// The failed call is gone: the next caller leads.
			if v, shared, err := g.Do(context.Background(), "k", func() (int, error) { return 1, nil }); v != 1 || shared || err != nil {
				t.Fatalf("after failure: %d %v %v", v, shared, err)
			}
		})
	}
}

// TestHammer: in every generation, callers × keys goroutines pile onto
// held leaders; fn must run once per (key, generation).
func TestHammer(t *testing.T) {
	const callers, keys, generations = 8, 4, 20
	var g Group[int, int]
	for gen := 0; gen < generations; gen++ {
		var runs [keys]atomic.Int32
		release := make(chan struct{})
		joined := g.Joins()
		var wg sync.WaitGroup
		for i := 0; i < callers*keys; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				k := i % keys
				v, _, err := g.Do(context.Background(), k, func() (int, error) {
					runs[k].Add(1)
					<-release
					return gen, nil
				})
				if v != gen || err != nil {
					t.Errorf("gen %d key %d: got %d, %v", gen, k, v, err)
				}
			}()
		}
		for g.Joins() < joined+(callers-1)*keys {
			runtime.Gosched()
		}
		close(release)
		wg.Wait()
		for k := range runs {
			if n := runs[k].Load(); n != 1 {
				t.Fatalf("gen %d key %d: fn ran %d times, want 1", gen, k, n)
			}
		}
	}
}
