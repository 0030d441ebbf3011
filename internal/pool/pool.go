// Package pool is Maya's one bounded index fan-out. Every place the
// product spreads n independent pieces of work over a few goroutines
// — ranks of an emulation, requests of a batch, trees of a forest
// suite, trials of a search generation — is one call of Each.
package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic in an Each callback, recovered on the worker
// that ran it and reported as that index's error.
type PanicError struct {
	Value any    // what was passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Each calls fn(worker, i) once for every i in [0, n) on
// min(workers, n) goroutines (at least one; the caller's is worker
// 0). worker is a stable index in [0, min(workers, n)) that no two
// concurrent calls share, so fn may keep per-worker scratch in a
// slice without locking. Indices are handed out in increasing order.
// Once ctx is done no further index starts; every index that started
// runs to completion, so the result does not depend on which failure
// happened to come first: it is the error of the lowest failed index
// that is not a context error, else ctx.Err(), else any context error
// fn returned on its own, else nil. A panic in fn is that index's
// error, a *PanicError; the other indices still run.
func Each(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	run := func(worker int) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = call(fn, worker, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()

	var ctxErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
			return err
		case ctxErr == nil:
			ctxErr = err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return ctxErr
}

func call(fn func(worker, i int) error, worker, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(worker, i)
}
