package faults

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"maya/internal/sim"
	"maya/internal/trace"
)

// iterJob builds a 2-worker, 3-iteration job with clean timing:
// 2ms setup, then per iteration a kernel, an allreduce and a synced
// iter_end mark. Run with timing(j, iterKernel), the kernel takes 10ms
// and the allreduce 1ms. Clean boundaries: setup_end at 2ms, iter ends
// at 13, 24, 35ms (11ms per iteration).
func iterJob(t testing.TB) *trace.Job {
	t.Helper()
	mk := func(rank int) *trace.Worker {
		w := &trace.Worker{Rank: rank, World: 2, Device: "test"}
		w.Append(trace.Op{Kind: trace.KindMark, Name: trace.MarkSetupEnd, HostGap: 2 * time.Millisecond})
		for k := range 3 {
			w.Append(trace.Op{Kind: trace.KindKernel, Name: "k", Stream: 0})
			w.Append(trace.Op{
				Kind: trace.KindCollective, Name: "ncclAllReduce", Stream: 0,
				Coll: &trace.Collective{Op: "ncclAllReduce", CommID: 0xc0, Seq: k, NRanks: 2, Rank: rank, Peer: -1},
			})
			w.Append(trace.Op{Kind: trace.KindDeviceSync})
			w.Append(trace.Op{Kind: trace.KindMark, Name: trace.MarkIterEnd})
		}
		return w
	}
	j, err := trace.NewJob([]*trace.Worker{mk(0), mk(1)})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	return j
}

// iterKernel is how long iterJob's kernels take.
const iterKernel = 10 * time.Millisecond

// fixedTimer prices the fixtures' device work: every kernel takes
// kernel, every collective 1ms.
type fixedTimer struct{ kernel time.Duration }

func (f fixedTimer) EstimateKernel(*trace.Op) time.Duration { return f.kernel }

func (fixedTimer) EstimateCollective(string, int64, []int, int) time.Duration {
	return time.Millisecond
}

// timing returns the overlay of j's durations when every kernel takes
// kernel and every collective 1ms.
func timing(t testing.TB, j *trace.Job, kernel time.Duration) *trace.Annotations {
	t.Helper()
	ann := trace.NewAnnotations(j)
	if err := trace.Annotate(context.Background(), j, nil, nil, fixedTimer{kernel}, ann); err != nil {
		t.Fatal(err)
	}
	return ann
}

// runner binds Evaluate's engine calls to a pooled run of j with
// overlay ann.
func runner(j *trace.Job, ann *trace.Annotations) Runner {
	return func(ctx context.Context, inj *sim.Injection, obs sim.Observer) (*sim.Report, error) {
		return sim.RunPooled(ctx, j, sim.Options{Faults: inj, Observer: obs, Annotations: ann})
	}
}

// evalFixture runs the perturbed baseline for plan and evaluates it.
func evalFixture(t *testing.T, j *trace.Job, plan *Plan) *sim.RecoveryReport {
	t.Helper()
	ctx := context.Background()
	run := runner(j, timing(t, j, iterKernel))
	inj, err := plan.Injection(j)
	if err != nil {
		t.Fatalf("Injection: %v", err)
	}
	perturbed, err := run(ctx, inj, nil)
	if err != nil {
		t.Fatalf("perturbed run: %v", err)
	}
	rep, err := Evaluate(ctx, plan, j, perturbed, run)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return rep
}

func TestEvaluateFaultFree(t *testing.T) {
	j := iterJob(t)
	rep := evalFixture(t, j, &Plan{})
	if got, want := rep.CleanTime, 35*time.Millisecond; got != want {
		t.Fatalf("clean time = %v, want %v", got, want)
	}
	if got, want := rep.TotalTime, 35*time.Millisecond; got != want {
		t.Fatalf("total time = %v, want %v", got, want)
	}
	if rep.Goodput != 1.0 {
		t.Fatalf("goodput = %v, want 1.0", rep.Goodput)
	}
	if rep.Iterations != 3 || rep.World != 2 || rep.Checkpoints != 0 {
		t.Fatalf("unexpected shape: %+v", rep)
	}
}

func TestEvaluateExplicitFailure(t *testing.T) {
	j := iterJob(t)
	plan := &Plan{
		CheckpointEvery: 1,
		CheckpointCost:  time.Millisecond,
		Detect:          10 * time.Millisecond,
		Restore:         2 * time.Millisecond,
		Failures:        []FailStop{{Rank: 1, At: 30 * time.Millisecond}},
	}
	rep := evalFixture(t, j, plan)

	// Hand walk: setup to 2ms; iter 0 to 13ms, checkpoint to 14ms;
	// iter 1 to 25ms, checkpoint to 26ms; death at 30ms, 4/11 into
	// iteration 2 → trace position 24 + 4 = 28ms; lost work 4ms;
	// detection 10ms + restore 2ms → resume at 42ms; iteration 2
	// redone clean → 53ms. No checkpoint after the final iteration.
	if got, want := rep.TotalTime, 53*time.Millisecond; got != want {
		t.Fatalf("total time = %v, want %v", got, want)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(rep.Failures))
	}
	f := rep.Failures[0]
	want := sim.FailureRecovery{
		Rank: 1, At: 30 * time.Millisecond, TraceAt: 28 * time.Millisecond,
		Detection: 10 * time.Millisecond, Restore: 2 * time.Millisecond,
		LostWork: 4 * time.Millisecond,
		// Rank 1's in-flight 10ms kernel (24→34ms) completes after
		// death at 28ms; rank 0 wedges joining the iteration-2
		// allreduce at 34ms and idles until detection at 38ms.
		SurvivorIdle: 4 * time.Millisecond, WedgedWorkers: 1,
	}
	if f != want {
		t.Fatalf("failure record = %+v, want %+v", f, want)
	}
	if got, want := rep.Checkpoints, 2; got != want {
		t.Fatalf("checkpoints = %d, want %d", got, want)
	}
	if got, want := rep.CheckpointOverhead, 2*time.Millisecond; got != want {
		t.Fatalf("checkpoint overhead = %v, want %v", got, want)
	}
	if got, want := rep.Goodput, float64(35)/53; got != want {
		t.Fatalf("goodput = %v, want %v", got, want)
	}
}

func TestEvaluateNoCheckpointLosesEverything(t *testing.T) {
	j := iterJob(t)
	plan := &Plan{Failures: []FailStop{{Rank: 0, At: 30 * time.Millisecond}}}
	rep := evalFixture(t, j, plan)
	// No checkpoints: the rewind goes to setup. Lost work is the
	// 28ms since setup ended; the walk replays all 3 iterations.
	if got, want := rep.LostWork, 28*time.Millisecond; got != want {
		t.Fatalf("lost work = %v, want %v", got, want)
	}
	if got, want := rep.TotalTime, 63*time.Millisecond; got != want {
		t.Fatalf("total time = %v, want %v", got, want)
	}
}

func TestEvaluateStragglerGoodput(t *testing.T) {
	j := iterJob(t)
	plan := &Plan{Stragglers: []Straggler{{Ranks: []int{1}, Factor: 2}}}
	rep := evalFixture(t, j, plan)
	// Rank 1's kernels run 2x slow (20ms): each iteration takes 21ms
	// and the whole run 2 + 3*21 = 65ms against a 35ms clean
	// baseline.
	if got, want := rep.CleanTime, 35*time.Millisecond; got != want {
		t.Fatalf("clean time = %v, want %v", got, want)
	}
	if got, want := rep.PerturbedTime, 65*time.Millisecond; got != want {
		t.Fatalf("perturbed time = %v, want %v", got, want)
	}
	if got, want := rep.TotalTime, 65*time.Millisecond; got != want {
		t.Fatalf("total time = %v, want %v", got, want)
	}
	if got, want := rep.Goodput, float64(35)/65; got != want {
		t.Fatalf("goodput = %v, want %v", got, want)
	}
}

func TestEvaluateResize(t *testing.T) {
	j := iterJob(t)
	plan := &Plan{Resizes: []Resize{{AtIteration: 1, NewWorld: 1, Base: 3 * time.Millisecond}}}
	rep := evalFixture(t, j, plan)
	// Iteration 0 at full speed (11ms), then a 3ms reshard pause and
	// 2x weak-scaling slowdown for iterations 1-2: 2 + 11 + 3 + 22 +
	// 22 = 60ms.
	if got, want := rep.TotalTime, 60*time.Millisecond; got != want {
		t.Fatalf("total time = %v, want %v", got, want)
	}
	if got, want := rep.Reshard, 3*time.Millisecond; got != want {
		t.Fatalf("reshard = %v, want %v", got, want)
	}
	wantRz := sim.ResizeRecovery{AtIteration: 1, OldWorld: 2, NewWorld: 1, Reshard: 3 * time.Millisecond}
	if len(rep.Resizes) != 1 || rep.Resizes[0] != wantRz {
		t.Fatalf("resizes = %+v, want [%+v]", rep.Resizes, wantRz)
	}
}

func TestEvaluateResizeBandwidthCost(t *testing.T) {
	j := iterJob(t)
	// 4 GiB of state over 4 GB/s: 4<<30 / 4 = 1<<30 ns on top of the
	// 1ms base.
	plan := &Plan{Resizes: []Resize{{AtIteration: 0, NewWorld: 2, StateBytes: 4 << 30, BWGBps: 4, Base: time.Millisecond}}}
	rep := evalFixture(t, j, plan)
	if got, want := rep.Reshard, time.Millisecond+time.Duration(1<<30); got != want {
		t.Fatalf("reshard = %v, want %v", got, want)
	}
}

func TestEvaluateIterationsExtendPastTrace(t *testing.T) {
	j := iterJob(t)
	rep := evalFixture(t, j, &Plan{Iterations: 5})
	// Steady-state iteration time is 11ms; two extra iterations
	// extend both the clean horizon and the walk identically.
	if got, want := rep.CleanTime, 57*time.Millisecond; got != want {
		t.Fatalf("clean time = %v, want %v", got, want)
	}
	if got, want := rep.TotalTime, 57*time.Millisecond; got != want {
		t.Fatalf("total time = %v, want %v", got, want)
	}
	if rep.Goodput != 1.0 {
		t.Fatalf("goodput = %v, want 1.0", rep.Goodput)
	}
}

func TestEvaluateMTBFDeterministic(t *testing.T) {
	j := iterJob(t)
	plan := &Plan{
		Seed:            42,
		MTBF:            40 * time.Millisecond,
		CheckpointEvery: 1,
		CheckpointCost:  500 * time.Microsecond,
		Detect:          time.Millisecond,
		Restore:         time.Millisecond,
		Iterations:      40,
	}
	want := evalFixture(t, j, plan)
	if len(want.Failures) == 0 {
		t.Fatal("MTBF scenario drew no failures; pick a smaller MTBF")
	}
	// Rerun several times, including a fresh-engine runner: reports
	// must be bit-identical.
	fresh := func(ctx context.Context, inj *sim.Injection, obs sim.Observer) (*sim.Report, error) {
		return sim.Run(ctx, j, sim.Options{Faults: inj, Observer: obs, Annotations: timing(t, j, iterKernel)})
	}
	ctx := context.Background()
	perturbed, err := fresh(ctx, nil, nil)
	if err != nil {
		t.Fatalf("perturbed: %v", err)
	}
	for range 3 {
		got := evalFixture(t, j, plan)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rerun diverged:\n got %+v\nwant %+v", got, want)
		}
		gotFresh, err := Evaluate(ctx, plan, j, perturbed, fresh)
		if err != nil {
			t.Fatalf("Evaluate fresh: %v", err)
		}
		if !reflect.DeepEqual(gotFresh, want) {
			t.Fatalf("fresh-engine run diverged:\n got %+v\nwant %+v", gotFresh, want)
		}
	}
}

func TestEvaluateConcurrentRace(t *testing.T) {
	j := iterJob(t)
	plan := &Plan{
		Seed: 7, MTBF: 60 * time.Millisecond, CheckpointEvery: 2,
		Detect: time.Millisecond, Restore: time.Millisecond, Iterations: 20,
		Stragglers: []Straggler{{EveryNth: 2, Factor: 1.5}},
	}
	want := evalFixture(t, j, plan)
	const workers = 8
	type out struct {
		rep *sim.RecoveryReport
		ok  bool
	}
	ch := make(chan out, workers)
	for range workers {
		go func() {
			defer func() { recover() }()
			rep := evalFixture(t, j, plan)
			ch <- out{rep, true}
		}()
	}
	for range workers {
		o := <-ch
		if !o.ok || !reflect.DeepEqual(o.rep, want) {
			t.Fatalf("concurrent evaluation diverged")
		}
	}
}

func TestEvaluateNonConvergence(t *testing.T) {
	j := iterJob(t)
	// A failure storm denser than recovery can outrun: every 1ms a
	// death, no checkpoints, so the walk never completes iteration 0.
	plan := &Plan{Seed: 1, MTBF: time.Millisecond, MaxRestarts: 10, Iterations: 3}
	run := runner(j, timing(t, j, iterKernel))
	perturbed, err := run(context.Background(), nil, nil)
	if err != nil {
		t.Fatalf("perturbed: %v", err)
	}
	_, err = Evaluate(context.Background(), plan, j, perturbed, run)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

func TestEvaluateMissingRank(t *testing.T) {
	// A single-worker job standing in for a deduplicated capture:
	// rank 1 is absent, so plans that target it must fail loudly.
	w := &trace.Worker{Rank: 0, World: 2, Device: "test"}
	w.Append(trace.Op{Kind: trace.KindMark, Name: trace.MarkSetupEnd})
	w.Append(trace.Op{Kind: trace.KindKernel, Name: "k"})
	w.Append(trace.Op{Kind: trace.KindDeviceSync})
	w.Append(trace.Op{Kind: trace.KindMark, Name: trace.MarkIterEnd})
	j, err := trace.NewJob([]*trace.Worker{w})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if _, err := (&Plan{Stragglers: []Straggler{{Ranks: []int{1}, Factor: 2}}}).Injection(j); err == nil {
		t.Fatal("Injection accepted absent rank")
	}
	run := runner(j, timing(t, j, time.Millisecond))
	perturbed, err := run(context.Background(), nil, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	plan := &Plan{Failures: []FailStop{{Rank: 1, At: time.Millisecond}}}
	if _, err := Evaluate(context.Background(), plan, j, perturbed, run); err == nil {
		t.Fatal("Evaluate accepted absent failure rank")
	}
}

func TestEvaluateNoIterMarks(t *testing.T) {
	w := &trace.Worker{Rank: 0, World: 1, Device: "test"}
	w.Append(trace.Op{Kind: trace.KindKernel, Name: "k"})
	w.Append(trace.Op{Kind: trace.KindDeviceSync})
	j, err := trace.NewJob([]*trace.Worker{w})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	run := runner(j, timing(t, j, time.Millisecond))
	perturbed, err := run(context.Background(), nil, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := Evaluate(context.Background(), &Plan{}, j, perturbed, run); err == nil {
		t.Fatal("Evaluate accepted a trace without iteration marks")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	plan := &Plan{
		Seed: 9, CheckpointEvery: 4, CheckpointCost: 30 * time.Second,
		MTBF: 6 * time.Hour, Detect: 30 * time.Second, Restore: 2 * time.Minute,
		Iterations: 500,
		Stragglers: []Straggler{{Ranks: []int{3}, Factor: 1.4, Until: time.Minute}},
		Failures:   []FailStop{{Rank: 2, At: time.Hour}},
		Resizes:    []Resize{{AtIteration: 100, NewWorld: 6, StateBytes: 1 << 30, BWGBps: 25}},
	}
	raw, err := json.Marshal(plan)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := ParsePlan(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if !reflect.DeepEqual(got, plan) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, plan)
	}

	if _, err := ParsePlan(strings.NewReader(`{"mtfb_ns": 1}`)); err == nil {
		t.Fatal("ParsePlan accepted unknown field")
	}
	if _, err := ParsePlan(strings.NewReader(`{"stragglers":[{"factor":0}]}`)); err == nil {
		t.Fatal("ParsePlan accepted zero straggler factor")
	}
	// A factor this large used to wrap the stretched duration negative
	// and make the straggler finish first.
	if _, err := ParsePlan(strings.NewReader(`{"stragglers":[{"factor":1e12}]}`)); err == nil {
		t.Fatal("ParsePlan accepted straggler factor 1e12")
	}
	for _, f := range []float64{0.5, MaxStragglerFactor + 1, math.Inf(1), math.NaN()} {
		if err := (&Plan{Stragglers: []Straggler{{Factor: f}}}).Validate(); err == nil {
			t.Fatalf("Validate accepted straggler factor %v", f)
		}
	}
	if _, err := ParsePlan(strings.NewReader(`{"resizes":[{"at_iteration":0,"new_world":0}]}`)); err == nil {
		t.Fatal("ParsePlan accepted zero world resize")
	}
}

func TestStragglerSelectors(t *testing.T) {
	s := Straggler{Ranks: []int{5}, EveryNth: 4, Factor: 2}
	for rank, want := range map[int]bool{0: true, 4: true, 5: true, 3: false, 6: false} {
		if got := s.matches(rank); got != want {
			t.Fatalf("matches(%d) = %v, want %v", rank, got, want)
		}
	}
	all := Straggler{Factor: 2}
	if !all.matches(0) || !all.matches(17) {
		t.Fatal("selector-free straggler must match every rank")
	}
}
