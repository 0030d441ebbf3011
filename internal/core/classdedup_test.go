package core

// Tests of the structural-dedup (ClassHinter) capture fast path: the
// verified class hints must produce bit-identical captures and
// reports to the full O(world) probe, lying hints must be caught by
// the verification sample, and incomplete communicator knowledge must
// force the fallback.

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

// hideHints forwards a Megatron workload's behavior but conceals its
// ClassHinter (and SelectiveLauncher) implementation, forcing the
// pipeline onto the full dynamic-dedup probe — the reference path the
// fast path must match bit for bit.
type hideHints struct {
	m *framework.Megatron
}

func (h hideHints) Name() string                        { return h.m.Name() }
func (h hideHints) World() int                          { return h.m.World() }
func (h hideHints) Run(rank int, dev cuda.Device) error { return h.m.Run(rank, dev) }
func (h hideHints) CommGroups() map[uint64][]int        { return h.m.CommGroups() }
func (h hideHints) Probe() workload.Workload {
	inner := h.m.Probe()
	if inner == workload.Workload(h.m) {
		return h
	}
	return hideHints{m: inner.(*framework.Megatron)}
}

var (
	_ workload.Prober     = hideHints{}
	_ workload.GroupAware = hideHints{}
)

// captureEqual compares everything about two captures except their
// wall-clock and emulation accounting (which legitimately differ
// between the fast path and the full probe).
func captureEqual(t *testing.T, hinted, full *Capture) {
	t.Helper()
	if hinted.UniqueWorkers != full.UniqueWorkers || hinted.TotalWorkers != full.TotalWorkers {
		t.Fatalf("worker accounting differs: hinted %d/%d, full %d/%d",
			hinted.UniqueWorkers, hinted.TotalWorkers, full.UniqueWorkers, full.TotalWorkers)
	}
	if hinted.PeakMemBytes != full.PeakMemBytes || hinted.OOM != full.OOM {
		t.Fatalf("memory verdict differs: hinted (%d, %t), full (%d, %t)",
			hinted.PeakMemBytes, hinted.OOM, full.PeakMemBytes, full.OOM)
	}
	if !reflect.DeepEqual(hinted.Comms, full.Comms) {
		t.Fatalf("communicator membership differs:\nhinted: %v\nfull:   %v", hinted.Comms, full.Comms)
	}
	if !reflect.DeepEqual(hinted.CommSizes, full.CommSizes) {
		t.Fatalf("communicator sizes differ:\nhinted: %v\nfull:   %v", hinted.CommSizes, full.CommSizes)
	}
	if !reflect.DeepEqual(hinted.Participants, full.Participants) {
		t.Fatal("participation counts differ")
	}
	var hj, fj bytes.Buffer
	if err := hinted.Job.WriteJSON(&hj); err != nil {
		t.Fatal(err)
	}
	if err := full.Job.WriteJSON(&fj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hj.Bytes(), fj.Bytes()) {
		t.Fatal("collated job traces are not byte-identical")
	}
}

func TestClassHintedCaptureMatchesFullProbe(t *testing.T) {
	cluster := hardware.DGXV100(2)
	for _, iters := range []int{1, 2} {
		cfg := framework.MegatronConfig{
			Model: models.GPT3_1_3B(), NGPUs: 16, GlobalBatch: 32,
			TP: 2, PP: 2, MicroBatches: 2, Iterations: iters,
		}
		m := megatron(t, cfg)
		p := oraclePipeline(cluster, Options{}) // dynamic dedup, no selective launch

		hinted, err := p.Capture(context.Background(), m)
		if err != nil {
			t.Fatalf("hinted capture (it=%d): %v", iters, err)
		}
		full, err := p.Capture(context.Background(), hideHints{m: m})
		if err != nil {
			t.Fatalf("full-probe capture (it=%d): %v", iters, err)
		}

		if !hinted.ClassHinted {
			t.Fatalf("it=%d: megatron capture did not take the class-hint fast path", iters)
		}
		if full.ClassHinted {
			t.Fatalf("it=%d: hidden-hint capture claims the fast path", iters)
		}
		// tp2/pp2/dp4: 2 classes of 8 — one representative plus two
		// verification samples each, then (for it>1) one full-workload
		// emulation per unique rank. The full probe pays all 16.
		probeCost := 6
		fullEmuls := 16
		if iters > 1 {
			probeCost += hinted.UniqueWorkers
			fullEmuls += full.UniqueWorkers
		}
		if hinted.RankEmulations != probeCost {
			t.Errorf("it=%d: hinted RankEmulations = %d, want %d", iters, hinted.RankEmulations, probeCost)
		}
		if full.RankEmulations != fullEmuls {
			t.Errorf("it=%d: full RankEmulations = %d, want %d", iters, full.RankEmulations, fullEmuls)
		}
		captureEqual(t, hinted, full)

		// And the reports downstream are bit-identical too.
		rh, err := p.Simulate(context.Background(), hinted, 0, hardware.BF16)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := p.Simulate(context.Background(), full, 0, hardware.BF16)
		if err != nil {
			t.Fatal(err)
		}
		rh.Stages, rf.Stages = StageTimings{}, StageTimings{}
		if !reflect.DeepEqual(rh, rf) {
			t.Errorf("it=%d: reports diverge:\nhinted: %+v\nfull:   %+v", iters, rh, rf)
		}
	}
}

// hintedWorkload is a minimal ClassHinter whose per-rank behavior and
// claimed classes the tests control directly.
type hintedWorkload struct {
	name    string
	world   int
	classes [][]int
	body    func(rank int, dev cuda.Device) error
}

func (h *hintedWorkload) Name() string         { return h.name }
func (h *hintedWorkload) World() int           { return h.world }
func (h *hintedWorkload) RankClasses() [][]int { return h.classes }
func (h *hintedWorkload) Run(rank int, dev cuda.Device) error {
	return h.body(rank, dev)
}

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
	return dev.StreamSynchronize(s)
}

func TestLyingClassHintsCaughtBySample(t *testing.T) {
	cluster := hardware.DGXV100(1)
	// Ranks 0..2 are identical; rank 3 performs extra work. The hint
	// lies that all four are one class, so the deterministic sample
	// (middle and last member: ranks 2 and 3) must expose rank 3.
	mk := func() *hintedWorkload {
		return &hintedWorkload{
			name:    "liar",
			world:   4,
			classes: [][]int{{0, 1, 2, 3}},
			body: func(rank int, dev cuda.Device) error {
				n := 4
				if rank == 3 {
					n = 7
				}
				return plainKernels(dev, n)
			},
		}
	}
	p := oraclePipeline(cluster, Options{})
	hinted, err := p.Capture(context.Background(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if hinted.ClassHinted {
		t.Fatal("lying hint survived verification")
	}
	if hinted.UniqueWorkers != 2 {
		t.Fatalf("unique workers = %d, want 2 (ranks {0,1,2} and {3})", hinted.UniqueWorkers)
	}
	// Fallback cost: the failed probe (rep 0 + samples 2,3) plus the
	// full-path emulation of every rank.
	if hinted.RankEmulations != 3+4 {
		t.Errorf("RankEmulations = %d, want 7 (3 probe + 4 fallback)", hinted.RankEmulations)
	}

	// The fallback must be bit-identical to never having hinted: same
	// workload body without the ClassHinter interface.
	plain := &hintedWorkload{name: "liar", world: 4, body: mk().body}
	ref, err := p.Capture(context.Background(), &noHints{plain})
	if err != nil {
		t.Fatal(err)
	}
	captureEqual(t, hinted, ref)

	rh, err := p.Simulate(context.Background(), hinted, 0, hardware.BF16)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := p.Simulate(context.Background(), ref, 0, hardware.BF16)
	if err != nil {
		t.Fatal(err)
	}
	rh.Stages, rr.Stages = StageTimings{}, StageTimings{}
	if !reflect.DeepEqual(rh, rr) {
		t.Fatalf("fallback report diverges from unhinted report:\n%+v\n%+v", rh, rr)
	}
}

// noHints strips every optional interface from a workload.
type noHints struct {
	w workload.Workload
}

func (n *noHints) Name() string                        { return n.w.Name() }
func (n *noHints) World() int                          { return n.w.World() }
func (n *noHints) Run(rank int, dev cuda.Device) error { return n.w.Run(rank, dev) }

func TestMalformedClassHintsFallBack(t *testing.T) {
	cluster := hardware.DGXV100(1)
	body := func(rank int, dev cuda.Device) error { return plainKernels(dev, 3) }
	for name, classes := range map[string][][]int{
		"missing-rank":   {{0, 1, 2}},
		"duplicate-rank": {{0, 1}, {1, 2, 3}},
		"out-of-range":   {{0, 1, 2, 4}},
		"unsorted":       {{0, 2, 1, 3}},
		"empty-class":    {{0, 1, 2, 3}, {}},
	} {
		w := &hintedWorkload{name: name, world: 4, classes: classes, body: body}
		cap, err := oraclePipeline(cluster, Options{}).Capture(context.Background(), w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cap.ClassHinted {
			t.Errorf("%s: malformed partition accepted", name)
		}
		if cap.UniqueWorkers != 1 {
			t.Errorf("%s: unique workers = %d, want 1", name, cap.UniqueWorkers)
		}
	}
}

func TestHyperscaleClassHintedCapture(t *testing.T) {
	// A ≥256-world fixture: capture must scale with unique structure
	// (2 pipeline stages), not world size — the acceptance bound is
	// classes + verification samples.
	cluster := hardware.DGXV100(32)
	cfg := framework.MegatronConfig{
		Model: models.GPT3_1_3B(), NGPUs: 256, GlobalBatch: 128,
		TP: 2, PP: 2, MicroBatches: 1,
	}
	m := megatron(t, cfg)
	p := oraclePipeline(cluster, Options{})
	cap, err := p.Capture(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if cap.OOM {
		t.Fatalf("fixture OOM (peak %d)", cap.PeakMemBytes)
	}
	if !cap.ClassHinted {
		t.Fatal("hyperscale capture did not take the class-hint fast path")
	}
	classes := len(m.RankClasses())
	samples := 2 * classes // middle + last member per class
	if cap.RankEmulations > classes+samples {
		t.Fatalf("RankEmulations = %d, want ≤ classes+samples = %d (world %d)",
			cap.RankEmulations, classes+samples, cfg.NGPUs)
	}
	if cap.TotalWorkers != 256 || cap.UniqueWorkers != classes {
		t.Fatalf("workers = %d/%d, want %d/256", cap.UniqueWorkers, cap.TotalWorkers, classes)
	}
}

// hintedProber is a hintedWorkload with a cheaper Probe of its own.
type hintedProber struct {
	*hintedWorkload
	probe workload.Workload
}

func (h hintedProber) Probe() workload.Workload { return h.probe }

// withProbe adds a Probe to a workload; embedding the Workload
// interface hides every other optional interface of the value it
// wraps.
type withProbe struct {
	workload.Workload
	probe workload.Workload
}

func (w withProbe) Probe() workload.Workload { return w.probe }

// hintedLauncher is a hintedWorkload that also names its unique
// ranks for selective launch.
type hintedLauncher struct {
	*hintedWorkload
	unique []int
}

func (h hintedLauncher) UniqueRanks() []int { return h.unique }

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
		return dev.StreamSynchronize(s)
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
// that every route captures what the unhinted workload does: the
// hinted capture's worker and emulation counts, whether the hint was
// served, and captureEqual against the reference capture.
func TestCaptureRoutes(t *testing.T) {
	cluster := hardware.DGXV100(1)
	hinted := func(world int, classes [][]int, body func(int, cuda.Device) error) *hintedWorkload {
		return &hintedWorkload{name: "routes", world: world, classes: classes, body: body}
	}
	for _, tc := range []struct {
		name     string
		opts     Options
		w, ref   workload.Workload
		unique   int
		emuls    int // RankEmulations of w
		refEmuls int // RankEmulations of ref
		served   bool
	}{{
		// A single valid-looking class, but the probed subset (0, 2,
		// 3) is three of the all-reduce's four members and the
		// workload is not GroupAware: the partial communicator forces
		// the fallback to the full probe.
		name:   "partial-communicator",
		w:      hinted(4, [][]int{{0, 1, 2, 3}}, allReduceBody(4)),
		ref:    &noHints{hinted(4, nil, allReduceBody(4))},
		unique: 1, emuls: 3 + 4, refEmuls: 4,
	}, {
		// A lying hint on a workload whose Probe is a separate
		// one-iteration workload: the failed probe (0, 2, 3), the
		// one-iteration probe of every rank, then the full workload
		// on the two representatives (0 and 3).
		name: "lying-hint-with-probe",
		w: hintedProber{
			hintedWorkload: hinted(4, [][]int{{0, 1, 2, 3}}, iterationsBody(2)),
			probe:          hinted(4, nil, iterationsBody(1)),
		},
		ref: withProbe{
			Workload: hinted(4, nil, iterationsBody(2)),
			probe:    hinted(4, nil, iterationsBody(1)),
		},
		unique: 2, emuls: 3 + 4 + 2, refEmuls: 4 + 2,
	}, {
		// NoDedup overrides both selective launch and a valid hint:
		// every rank, no deduplication.
		name: "no-dedup-overrides",
		opts: Options{NoDedup: true, SelectiveLaunch: true},
		w: hintedLauncher{
			hintedWorkload: hinted(4, [][]int{{0, 1, 2, 3}}, allReduceBody(4)),
			unique:         []int{0},
		},
		ref:    &noHints{hinted(4, nil, allReduceBody(4))},
		unique: 4, emuls: 4, refEmuls: 4,
	}, {
		// A world of one has nothing to deduplicate: the hint is not
		// consulted and the one rank is emulated once.
		name:   "world-one",
		w:      hinted(1, [][]int{{0}}, iterationsBody(1)),
		ref:    &noHints{hinted(1, nil, iterationsBody(1))},
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
			if got.ClassHinted != tc.served || ref.ClassHinted {
				t.Fatalf("ClassHinted = %t (reference %t), want %t", got.ClassHinted, ref.ClassHinted, tc.served)
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
