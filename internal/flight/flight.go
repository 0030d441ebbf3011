// Package flight is the repo's one ctx-aware single-flight: for one
// key, one leader runs the computation while followers wait for its
// result, each honouring its own context. Where the calls live — and
// whether a finished one stays to be found again — belongs to the
// caller: a memoizing cache keeps successful calls in its own table
// (core's suite, capture and plan caches), a pure coalescer drops
// every call as it finishes (Group).
package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrLeaderPanicked is what followers receive when the leader's
// computation panicked; the panic itself unwinds the leader's stack.
var ErrLeaderPanicked = errors.New("flight: leader panicked")

// Call is one computation: in flight until its leader finishes, then
// an immutable result that any number of callers may read.
type Call[V any] struct {
	done chan struct{} // closed once val and err are final
	val  V
	err  error
}

// NewCall returns an unfinished call for a claim function to register.
func NewCall[V any]() *Call[V] { return &Call[V]{done: make(chan struct{})} }

// IsCtxErr reports whether err is a context cancellation or deadline:
// a failure scoped to one caller, not a verdict on the computation.
func IsCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Do runs the single-flight protocol over the caller's table. claim,
// under the caller's lock, either finds the key's call (lead false)
// or registers a NewCall (lead true). The leader runs fn, hands the
// outcome to settle — where the caller unregisters a call it will not
// keep — and only then releases the followers, so a follower that
// retries never finds a dropped call. A follower waits on the call
// and on its own ctx; if the leader failed with a context error while
// the follower's ctx is live, the follower claims again and usually
// leads. shared reports that the caller followed.
func Do[V any](ctx context.Context, claim func() (c *Call[V], lead bool), fn func() (V, error), settle func(*Call[V], error)) (v V, shared bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return v, false, err
		}
		c, lead := claim()
		if lead {
			c.lead(fn, settle)
			return c.val, false, c.err
		}
		select {
		case <-c.done:
			if IsCtxErr(c.err) && ctx.Err() == nil {
				continue
			}
			return c.val, true, c.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
}

func (c *Call[V]) lead(fn func() (V, error), settle func(*Call[V], error)) {
	c.err = ErrLeaderPanicked // stands unless fn returns
	defer func() {
		settle(c, c.err)
		close(c.done)
	}()
	c.val, c.err = fn()
}

// Group coalesces concurrent identical computations and remembers
// nothing: a call lives exactly as long as its leader runs, so memory
// is bounded by concurrency. The zero value is ready to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*Call[V]
	joins atomic.Int64
}

// Do returns fn's outcome for key, running fn only if no identical
// call is in flight; see the package-level Do for the protocol.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, shared bool, err error) {
	return Do(ctx,
		func() (*Call[V], bool) {
			g.mu.Lock()
			defer g.mu.Unlock()
			if c, ok := g.calls[key]; ok {
				g.joins.Add(1)
				return c, false
			}
			if g.calls == nil {
				g.calls = make(map[K]*Call[V])
			}
			c := NewCall[V]()
			g.calls[key] = c
			return c, true
		},
		fn,
		func(*Call[V], error) {
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
		})
}

// Joins counts callers that attached to another's in-flight call.
func (g *Group[K, V]) Joins() int64 { return g.joins.Load() }
