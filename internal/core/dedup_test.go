package core

// Tests of the two capture routes: the paper's probe of every rank
// followed by dedup, and selective launch. A deduplicated capture must
// be bit-identical to the selectively launched one, and each route
// emulates exactly the ranks it names.

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"maya/internal/cuda"
	"maya/internal/framework"
	"maya/internal/hardware"
	"maya/internal/models"
	"maya/internal/nccl"
	"maya/internal/workload"
)

// captureEqual compares everything about two captures except their
// wall-clock and emulation accounting (which legitimately differ
// between capture routes).
func captureEqual(t *testing.T, got, want *Capture) {
	t.Helper()
	if got.UniqueWorkers != want.UniqueWorkers || got.TotalWorkers != want.TotalWorkers {
		t.Fatalf("worker accounting differs: got %d/%d, want %d/%d",
			got.UniqueWorkers, got.TotalWorkers, want.UniqueWorkers, want.TotalWorkers)
	}
	if got.PeakMemBytes != want.PeakMemBytes || got.OOM != want.OOM {
		t.Fatalf("memory verdict differs: got (%d, %t), want (%d, %t)",
			got.PeakMemBytes, got.OOM, want.PeakMemBytes, want.OOM)
	}
	if !reflect.DeepEqual(got.Comms, want.Comms) {
		t.Fatalf("communicator membership differs:\ngot:  %v\nwant: %v", got.Comms, want.Comms)
	}
	if !reflect.DeepEqual(got.CommSizes, want.CommSizes) {
		t.Fatalf("communicator sizes differ:\ngot:  %v\nwant: %v", got.CommSizes, want.CommSizes)
	}
	if !reflect.DeepEqual(got.Participants, want.Participants) {
		t.Fatal("participation counts differ")
	}
	if !bytes.Equal(jobBytes(t, got.Job), jobBytes(t, want.Job)) {
		t.Fatal("collated job traces are not byte-identical")
	}
}

// TestHyperscaleFullProbeCapture probes all 256 ranks of a tp2 pp2
// Megatron job: dedup keeps one worker per pipeline stage, and the
// capture and its report are bit-identical to selective launch's.
func TestHyperscaleFullProbeCapture(t *testing.T) {
	cluster := hardware.DGXV100(32)
	cfg := framework.MegatronConfig{
		Model: models.GPT3_1_3B(), NGPUs: 256, GlobalBatch: 128,
		TP: 2, PP: 2, MicroBatches: 1,
	}
	m := megatron(t, cfg)
	probed := oraclePipeline(cluster, Options{})
	full, err := probed.Capture(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if full.OOM {
		t.Fatalf("fixture OOM (peak %d)", full.PeakMemBytes)
	}
	if full.RankEmulations != 256 || full.TotalWorkers != 256 || full.UniqueWorkers != cfg.PP {
		t.Fatalf("emulations %d, workers %d/%d, want 256 and %d/256",
			full.RankEmulations, full.UniqueWorkers, full.TotalWorkers, cfg.PP)
	}
	launched := oraclePipeline(cluster, Options{SelectiveLaunch: true})
	sel, err := launched.Capture(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	captureEqual(t, full, sel)

	rf, err := probed.Simulate(context.Background(), full, 0, hardware.BF16)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := launched.Simulate(context.Background(), sel, 0, hardware.BF16)
	if err != nil {
		t.Fatal(err)
	}
	rf.Stages, rs.Stages = StageTimings{}, StageTimings{}
	if !reflect.DeepEqual(rf, rs) {
		t.Errorf("reports diverge:\nprobe:     %+v\nselective: %+v", rf, rs)
	}
}

// ranks is a workload of world ranks that each run body.
func ranks(world int, body func(rank int, dev cuda.Device) error) workload.Func {
	return workload.Func{JobName: "routes", Ranks: world, Body: body}
}

// withProbe adds a Probe to a workload; embedding the Workload
// interface hides every other optional interface of the value it
// wraps.
type withProbe struct {
	workload.Workload
	probe workload.Workload
}

func (w withProbe) Probe() workload.Workload { return w.probe }

// launcher is a workload that also names its unique ranks for
// selective launch.
type launcher struct {
	workload.Workload
	unique []int
}

func (l launcher) UniqueRanks() []int { return l.unique }

// plainKernels emits count kernels on one stream.
func plainKernels(dev cuda.Device, count int) error {
	s, err := dev.StreamCreate()
	if err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		if err := dev.LaunchKernel(cuda.KernelDesc{
			Name: "vectorized_elementwise_kernel", Dims: []int{1 << 16},
			Bytes: 1 << 18, DType: "fp32",
		}, s); err != nil {
			return err
		}
	}
	return dev.DeviceSynchronize()
}

// allReduceBody is a rank body whose traces are alike on every rank:
// a few kernels, then one all-reduce over the whole world.
func allReduceBody(world int) func(rank int, dev cuda.Device) error {
	group := make([]int, world)
	for i := range group {
		group[i] = i
	}
	return func(rank int, dev cuda.Device) error {
		comm, err := nccl.CommInitRank(dev, world, rank, nccl.UniqueIDFor("all", group))
		if err != nil {
			return err
		}
		if err := plainKernels(dev, 2); err != nil {
			return err
		}
		s, err := dev.StreamCreate()
		if err != nil {
			return err
		}
		if err := comm.AllReduce(1<<20, s); err != nil {
			return err
		}
		return dev.DeviceSynchronize()
	}
}

// iterationsBody is a rank body of iters iterations in which rank 3
// does more work than the others.
func iterationsBody(iters int) func(rank int, dev cuda.Device) error {
	return func(rank int, dev cuda.Device) error {
		n := 4 * iters
		if rank == 3 {
			n += 3
		}
		return plainKernels(dev, n)
	}
}

// TestCaptureRoutes pins which ranks each capture route emulates and
// that it captures what a reference route does: the capture's worker
// and emulation counts, and captureEqual against the reference.
func TestCaptureRoutes(t *testing.T) {
	cluster := hardware.DGXV100(1)
	for _, tc := range []struct {
		name     string
		opts     Options
		w, ref   workload.Workload
		unique   int
		emuls    int // RankEmulations of w
		refEmuls int // RankEmulations of ref
	}{{
		// The one-iteration probe runs on every rank, then the full
		// workload on the two representatives (0 and 3): the same
		// capture as probing every rank with the full workload.
		name: "probe",
		w: withProbe{
			Workload: ranks(4, iterationsBody(2)),
			probe:    ranks(4, iterationsBody(1)),
		},
		ref:    ranks(4, iterationsBody(2)),
		unique: 2, emuls: 4 + 2, refEmuls: 4,
	}, {
		// NoDedup overrides selective launch: every rank, no
		// deduplication.
		name: "no-dedup-overrides",
		opts: Options{NoDedup: true, SelectiveLaunch: true},
		w: launcher{
			Workload: ranks(4, allReduceBody(4)),
			unique:   []int{0},
		},
		ref:    ranks(4, allReduceBody(4)),
		unique: 4, emuls: 4, refEmuls: 4,
	}, {
		// A world of one has nothing to deduplicate: the probe is not
		// run and the one rank is emulated once.
		name: "world-one",
		w: withProbe{
			Workload: ranks(1, iterationsBody(2)),
			probe:    ranks(1, iterationsBody(1)),
		},
		ref:    ranks(1, iterationsBody(2)),
		unique: 1, emuls: 1, refEmuls: 1,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			p := oraclePipeline(cluster, tc.opts)
			got, err := p.Capture(context.Background(), tc.w)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := p.Capture(context.Background(), tc.ref)
			if err != nil {
				t.Fatal(err)
			}
			if got.UniqueWorkers != tc.unique {
				t.Errorf("UniqueWorkers = %d, want %d", got.UniqueWorkers, tc.unique)
			}
			if got.RankEmulations != tc.emuls || ref.RankEmulations != tc.refEmuls {
				t.Errorf("RankEmulations = %d (reference %d), want %d (%d)",
					got.RankEmulations, ref.RankEmulations, tc.emuls, tc.refEmuls)
			}
			captureEqual(t, got, ref)
		})
	}
}
