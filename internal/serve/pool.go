package serve

import (
	"context"
	"sync/atomic"
)

// Pool bounds how many predictions execute simultaneously. The Maya
// pipeline already pools its expensive per-run state process-wide
// (simulation engines); capping concurrent
// predictions keeps that reuse high — roughly worker-count engines
// ever live — instead of letting a traffic burst mint one engine per
// request. Callers queue on the semaphore, observing their own ctx,
// so a deadlined request stops waiting instead of holding a slot it
// can no longer use.
type Pool struct {
	slots chan struct{}

	busy    atomic.Int64 // jobs currently executing
	waiting atomic.Int64 // jobs queued for a slot
	done    atomic.Int64 // jobs completed
}

// NewPool returns a pool executing at most workers predictions at
// once (minimum 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{slots: make(chan struct{}, workers)}
}

// Run executes fn on a pool slot, waiting for one if all workers are
// busy. It returns ctx's error if the wait is cancelled first; fn's
// own result travels out of band (the closure).
func (p *Pool) Run(ctx context.Context, fn func()) error {
	p.waiting.Add(1)
	select {
	case p.slots <- struct{}{}:
		p.waiting.Add(-1)
	case <-ctx.Done():
		p.waiting.Add(-1)
		return ctx.Err()
	}
	p.busy.Add(1)
	defer func() {
		p.busy.Add(-1)
		p.done.Add(1)
		<-p.slots
	}()
	fn()
	return nil
}

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.slots) }

// Busy reports how many predictions are executing right now.
func (p *Pool) Busy() int { return int(p.busy.Load()) }

// Waiting reports how many jobs are queued for a slot.
func (p *Pool) Waiting() int { return int(p.waiting.Load()) }

// Completed reports how many jobs have finished.
func (p *Pool) Completed() int64 { return p.done.Load() }
