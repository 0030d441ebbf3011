package maya_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"maya"
	"maya/internal/cuda"
	"maya/internal/pool"
	"maya/internal/workload"
)

// stubJob builds a one-rank workload that drives a few kernels. With
// WithOracleAnnotation these predict without any estimator training,
// keeping batch tests fast.
func stubJob(name string, kernels int, body func(dev cuda.Device) error) maya.Request {
	w := workload.Func{
		JobName: name,
		Ranks:   1,
		Body: func(rank int, dev cuda.Device) error {
			if body != nil {
				if err := body(dev); err != nil {
					return err
				}
			}
			ptr, err := dev.Malloc(1 << 20)
			if err != nil {
				return err
			}
			for i := 0; i < kernels; i++ {
				k := cuda.KernelDesc{
					Name: "vectorized_elementwise_kernel", Dims: []int{1 << 16},
					Bytes: 1 << 18, FLOPs: 1 << 16, DType: "bf16",
				}
				if err := dev.LaunchKernel(k, cuda.DefaultStream); err != nil {
					return err
				}
			}
			if err := dev.DeviceSynchronize(); err != nil {
				return err
			}
			return dev.Free(ptr)
		},
	}
	return maya.Request{Workload: w, Options: []maya.PredictOption{maya.WithOracleAnnotation()}}
}

func testPredictor(t *testing.T) *maya.Predictor {
	t.Helper()
	pred, err := maya.NewPredictor(maya.DGXV100(1), maya.ProfileLLM,
		maya.WithEstimatorCache(maya.NewEstimatorCache()))
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func TestPredictBatchOrdering(t *testing.T) {
	pred := testPredictor(t)
	const n = 12
	reqs := make([]maya.Request, n)
	for i := range reqs {
		reqs[i] = stubJob(fmt.Sprintf("job-%02d", i), 4+i, nil)
	}
	results, err := pred.PredictBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results for %d requests", len(results), n)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d failed: %v", i, res.Err)
		}
		want := fmt.Sprintf("job-%02d", i)
		if res.Report.Workload != want {
			t.Errorf("results[%d] answers %q, want %q (ordering broken)", i, res.Report.Workload, want)
		}
	}
}

// panicsOnRankOne is a two-rank workload whose second rank panics
// inside Run — on a goroutine of the emulation fan-out, where no
// recover of the caller's can reach it.
func panicsOnRankOne() maya.Request {
	w := workload.Func{
		JobName: "panics-on-rank-1",
		Ranks:   2,
		Body: func(rank int, dev cuda.Device) error {
			if rank == 1 {
				panic("boom")
			}
			return dev.DeviceSynchronize()
		},
	}
	return maya.Request{Workload: w, Options: []maya.PredictOption{maya.WithOracleAnnotation()}}
}

func TestPredictPanickingRankIsAnError(t *testing.T) {
	req := panicsOnRankOne()
	_, err := testPredictor(t).Predict(context.Background(), req.Workload, req.Options...)
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want one wrapping *pool.PanicError", err)
	}
	if pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic error %+v: want the panic value and a stack", pe)
	}
}

func TestPredictBatchPanicIsolation(t *testing.T) {
	reqs := []maya.Request{stubJob("ok-one", 4, nil), panicsOnRankOne(), stubJob("ok-two", 4, nil)}
	results, err := testPredictor(t).PredictBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("batch-level error despite per-request isolation: %v", err)
	}
	var pe *pool.PanicError
	if !errors.As(results[1].Err, &pe) || results[1].Report != nil {
		t.Fatalf("panicking request: %+v, want an error wrapping *pool.PanicError", results[1])
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Report.Workload != reqs[i].Workload.Name() {
			t.Fatalf("neighbour %d of the panicking request: %+v", i, results[i])
		}
	}
}

func TestPredictBatchErrorIsolation(t *testing.T) {
	pred := testPredictor(t)
	boom := errors.New("boom")
	reqs := []maya.Request{
		stubJob("ok-one", 4, nil),
		{Workload: nil}, // invalid request
		stubJob("fails", 2, func(cuda.Device) error { return boom }),
		// An allocation beyond the 32 GiB V100 is an OOM *report*, not
		// an error.
		stubJob("oom", 2, func(dev cuda.Device) error {
			_, err := dev.Malloc(1 << 45)
			return err
		}),
		stubJob("ok-two", 4, nil),
	}
	results, err := pred.PredictBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("batch-level error despite per-request isolation: %v", err)
	}
	if results[0].Err != nil || results[4].Err != nil {
		t.Fatalf("healthy requests failed: %v / %v", results[0].Err, results[4].Err)
	}
	if results[1].Err == nil {
		t.Fatal("nil workload did not error")
	}
	if results[2].Err == nil || !errors.Is(results[2].Err, boom) {
		t.Fatalf("failing workload: err = %v, want %v", results[2].Err, boom)
	}
	if results[3].Err != nil {
		t.Fatalf("OOM config must be a report, got error %v", results[3].Err)
	}
	if !results[3].Report.OOM {
		t.Fatalf("OOM config not flagged: %+v", results[3].Report)
	}
}

func TestPredictBatchConcurrencyLimit(t *testing.T) {
	pred := testPredictor(t)
	const limit = 2
	var inFlight, peak atomic.Int64
	reqs := make([]maya.Request, 10)
	for i := range reqs {
		reqs[i] = stubJob(fmt.Sprintf("c%d", i), 2, func(cuda.Device) error {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
			inFlight.Add(-1)
			return nil
		})
	}
	results, err := pred.PredictBatch(context.Background(), reqs, maya.WithBatchConcurrency(limit))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
	}
	if p := peak.Load(); p > limit {
		t.Fatalf("observed %d concurrent evaluations, limit %d", p, limit)
	}
	if p := peak.Load(); p == 0 {
		t.Fatal("no request ever ran")
	}
}

func TestPredictBatchCancellation(t *testing.T) {
	pred := testPredictor(t)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	reqs := make([]maya.Request, 32)
	for i := range reqs {
		reqs[i] = stubJob(fmt.Sprintf("s%d", i), 2, func(cuda.Device) error {
			started <- struct{}{}
			time.Sleep(10 * time.Millisecond)
			return nil
		})
	}
	done := make(chan struct{})
	var results []maya.BatchResult
	var err error
	go func() {
		defer close(done)
		results, err = pred.PredictBatch(ctx, reqs, maya.WithBatchConcurrency(2))
	}()
	<-started
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled batch did not return")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var unfinished int
	for _, res := range results {
		if res.Err != nil && errors.Is(res.Err, context.Canceled) {
			unfinished++
		}
	}
	if unfinished == 0 {
		t.Fatal("cancellation finished every request — nothing was cut short")
	}
}
