package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// busyStats is the report's merge over ivs, each interval a run of its
// own: any order of intervals is a set of sorted runs that way.
func busyStats(ivs []interval, s *busyScratch) (compute, comm, exposed time.Duration) {
	runs := make([][]interval, len(ivs))
	for i := range ivs {
		runs[i] = ivs[i : i+1]
	}
	return mergeBusy(runs, s)
}

// sortedBusy is the busy unions computed without the k-way merge: split
// the intervals by class, sort and unionize each, and intersect.
func sortedBusy(ivs []interval) (compute, comm, exposed time.Duration) {
	var comps, comms []interval
	for _, iv := range ivs {
		switch {
		case iv.end <= iv.start:
		case iv.comm:
			comms = append(comms, iv)
		default:
			comps = append(comps, iv)
		}
	}
	compU, commU := unionize(comps), unionize(comms)
	return time.Duration(unionLen(compU)), time.Duration(unionLen(commU)),
		time.Duration(unionLen(commU) - overlapLen(commU, compU))
}

// busyCases are the interval sets of the busyStats cases below.
var busyCases = [][]interval{
	{{start: 0, end: 100}, {start: 50, end: 150, comm: true}},
	{{start: 5, end: 5}, {start: 9, end: 7}, {start: 0, end: 10}, {start: 3, end: 3, comm: true}},
	{{start: 0, end: 40, comm: true}, {start: 10, end: 60, comm: true}},
	{{start: 0, end: 100}, {start: 20, end: 30, comm: true}, {start: 40, end: 50, comm: true}},
}

// randomRuns returns k streams' intervals as a stream writes them:
// positive-length ones in start order — touching, overlapping, nested
// in a long predecessor or apart, compute or comm — with zeroed
// entries (a record's, a wait's) anywhere between.
func randomRuns(rng *rand.Rand, k int) [][]interval {
	runs := make([][]interval, k)
	for r := range runs {
		var t, prevEnd int64
		for range rng.Intn(24) {
			var iv interval
			switch rng.Intn(6) {
			case 0: // a record or a wait
				runs[r] = append(runs[r], interval{})
				continue
			case 1: // touching its predecessor
				t = max(t, prevEnd)
			case 2: // same start
			default:
				t += rng.Int63n(50)
			}
			iv.start = t
			switch rng.Intn(5) {
			case 0:
				iv.end = t // instantaneous
			case 1:
				iv.end = t + 200 + rng.Int63n(400) // nests what follows
			default:
				iv.end = t + 1 + rng.Int63n(60)
			}
			iv.comm = rng.Intn(3) == 0
			prevEnd = iv.end
			runs[r] = append(runs[r], iv)
		}
	}
	return runs
}

// TestMergeBusyMatchesSortAndUnion checks the report's k-way merge
// against sorting and unionizing the same intervals, in integer ns:
// the busyStats cases (as one-interval runs and as one sorted run)
// and seeded random stream runs.
func TestMergeBusyMatchesSortAndUnion(t *testing.T) {
	check := func(name string, runs [][]interval, s *busyScratch) {
		t.Helper()
		var all []interval
		for _, run := range runs {
			all = append(all, run...)
		}
		wc, wm, we := sortedBusy(append([]interval(nil), all...))
		gc, gm, ge := mergeBusy(runs, s)
		if gc != wc || gm != wm || ge != we {
			t.Fatalf("%s: merge gives compute/comm/exposed %d/%d/%d, sort-and-union %d/%d/%d; intervals %v",
				name, gc, gm, ge, wc, wm, we, all)
		}
	}
	var s busyScratch
	for c, ivs := range busyCases {
		singles := make([][]interval, len(ivs))
		for i := range ivs {
			singles[i] = []interval{ivs[i]}
		}
		check(fmt.Sprintf("case %d, one run per interval", c), singles, &s)
		sorted := append([]interval(nil), ivs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
		check(fmt.Sprintf("case %d, one sorted run", c), [][]interval{sorted}, nil)
	}
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(fmt.Sprintf("seed %d", seed), randomRuns(rng, 1+rng.Intn(6)), &s)
	}
}

func TestUnionize(t *testing.T) {
	ivs := []interval{{start: 0, end: 10}, {start: 5, end: 15}, {start: 20, end: 25}}
	u := unionize(ivs)
	if len(u) != 2 || u[0].start != 0 || u[0].end != 15 || u[1].start != 20 {
		t.Fatalf("union = %v", u)
	}
	if unionLen(u) != 20 {
		t.Fatalf("union length = %d", unionLen(u))
	}
}

func TestOverlapLen(t *testing.T) {
	a := []interval{{start: 0, end: 10}, {start: 20, end: 30}}
	b := []interval{{start: 5, end: 25}}
	if got := overlapLen(a, b); got != 10 {
		t.Fatalf("overlap = %d, want 10 (5 in each segment)", got)
	}
	if overlapLen(a, nil) != 0 {
		t.Fatal("overlap with empty should be 0")
	}
}

func TestBusyStatsExposedComm(t *testing.T) {
	ivs := []interval{
		{start: 0, end: 100},              // compute
		{start: 50, end: 150, comm: true}, // comm half hidden
	}
	comp, comm, exposed := busyStats(ivs, nil)
	if comp != 100 || comm != 100 {
		t.Fatalf("comp/comm = %v/%v", comp, comm)
	}
	if exposed != 50 {
		t.Fatalf("exposed = %v, want 50", exposed)
	}
}

func TestIterTimeSingleIteration(t *testing.T) {
	r := &Report{
		Marks: [][]MarkAt{{
			{Label: "setup_end", At: 10 * time.Millisecond},
			{Label: "iter_end", At: 40 * time.Millisecond},
		}},
	}
	if got := r.IterTime(); got != 30*time.Millisecond {
		t.Fatalf("single-iteration time = %v", got)
	}
}

func TestIterEndsTakeSlowestWorker(t *testing.T) {
	r := &Report{
		Marks: [][]MarkAt{
			{{Label: "iter_end", At: 10 * time.Millisecond}, {Label: "iter_end", At: 30 * time.Millisecond}},
			{{Label: "iter_end", At: 12 * time.Millisecond}, {Label: "iter_end", At: 28 * time.Millisecond}},
		},
	}
	ends := r.IterEnds()
	if len(ends) != 2 || ends[0] != 12*time.Millisecond || ends[1] != 30*time.Millisecond {
		t.Fatalf("iter ends = %v", ends)
	}
	// Steady-state time uses the gap between boundaries.
	if got := r.IterTime(); got != 18*time.Millisecond {
		t.Fatalf("steady iter = %v", got)
	}
}

func TestUnionizeEdgeCases(t *testing.T) {
	if got := unionize(nil); got != nil {
		t.Fatalf("unionize(nil) = %v, want nil", got)
	}
	// Fully nested overlap collapses to the outer interval.
	nested := []interval{{start: 0, end: 100}, {start: 10, end: 20}, {start: 30, end: 90}}
	u := unionize(nested)
	if len(u) != 1 || u[0].start != 0 || u[0].end != 100 {
		t.Fatalf("nested union = %v, want [{0 100}]", u)
	}
	// Touching intervals merge (closed at the seam).
	touching := []interval{{start: 0, end: 10}, {start: 10, end: 20}}
	if u := unionize(touching); len(u) != 1 || u[0].end != 20 {
		t.Fatalf("touching union = %v, want one [0,20)", u)
	}
	// Identical intervals count once.
	same := []interval{{start: 5, end: 9}, {start: 5, end: 9}}
	if got := unionLen(unionize(same)); got != 4 {
		t.Fatalf("duplicate union length = %d, want 4", got)
	}
}

func TestBusyStatsZeroLengthIntervals(t *testing.T) {
	// Zero- and negative-length intervals (instantaneous ops, clamped
	// durations) must not contribute to busy time or crash unionize.
	ivs := []interval{
		{start: 5, end: 5},
		{start: 9, end: 7},
		{start: 0, end: 10},
		{start: 3, end: 3, comm: true},
	}
	comp, comm, exposed := busyStats(ivs, nil)
	if comp != 10 || comm != 0 || exposed != 0 {
		t.Fatalf("comp/comm/exposed = %v/%v/%v, want 10/0/0", comp, comm, exposed)
	}
}

func TestBusyStatsCommOnlyWorker(t *testing.T) {
	// A worker that only communicates (a relay rank): all comm time is
	// exposed, compute is zero.
	ivs := []interval{
		{start: 0, end: 40, comm: true},
		{start: 10, end: 60, comm: true},
	}
	comp, comm, exposed := busyStats(ivs, nil)
	if comp != 0 {
		t.Fatalf("compute = %v, want 0", comp)
	}
	if comm != 60 || exposed != 60 {
		t.Fatalf("comm/exposed = %v/%v, want 60/60 (nothing hides it)", comm, exposed)
	}
}

func TestBusyStatsFullyNestedCommInsideCompute(t *testing.T) {
	ivs := []interval{
		{start: 0, end: 100},
		{start: 20, end: 30, comm: true}, // fully hidden
		{start: 40, end: 50, comm: true}, // fully hidden
	}
	comp, comm, exposed := busyStats(ivs, nil)
	if comp != 100 || comm != 20 || exposed != 0 {
		t.Fatalf("comp/comm/exposed = %v/%v/%v, want 100/20/0", comp, comm, exposed)
	}
}

func TestComplementWithin(t *testing.T) {
	u := []interval{{start: 10, end: 20}, {start: 30, end: 40}}
	got := complementWithin(u, 50)
	want := []interval{{start: 0, end: 10}, {start: 20, end: 30}, {start: 40, end: 50}}
	if len(got) != len(want) {
		t.Fatalf("complement = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].start != want[i].start || got[i].end != want[i].end {
			t.Fatalf("complement = %v, want %v", got, want)
		}
	}
	if got := complementWithin(nil, 25); len(got) != 1 || got[0].start != 0 || got[0].end != 25 {
		t.Fatalf("complement of empty = %v, want [{0 25}]", got)
	}
	// Busy set covering the whole span leaves nothing.
	if got := complementWithin([]interval{{start: 0, end: 25}}, 25); len(got) != 0 {
		t.Fatalf("complement of full cover = %v, want empty", got)
	}
	// Busy beyond the span is clipped out entirely.
	if got := complementWithin([]interval{{start: 30, end: 40}}, 25); len(got) != 1 || got[0].end != 25 {
		t.Fatalf("complement with out-of-span busy = %v", got)
	}
}

func TestSubtractSets(t *testing.T) {
	a := []interval{{start: 0, end: 10}, {start: 20, end: 30}}
	b := []interval{{start: 5, end: 25}}
	got := subtractSets(a, b)
	want := []interval{{start: 0, end: 5}, {start: 25, end: 30}}
	if len(got) != len(want) {
		t.Fatalf("subtract = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].start != want[i].start || got[i].end != want[i].end {
			t.Fatalf("subtract = %v, want %v", got, want)
		}
	}
	// b splitting a into three pieces.
	got = subtractSets([]interval{{start: 0, end: 30}}, []interval{{start: 5, end: 10}, {start: 15, end: 20}})
	if len(got) != 3 || got[1].start != 10 || got[1].end != 15 {
		t.Fatalf("split subtract = %v", got)
	}
	if got := subtractSets(a, nil); len(got) != 2 {
		t.Fatalf("subtract nothing = %v, want a itself", got)
	}
	if got := subtractSets(nil, b); len(got) != 0 {
		t.Fatalf("subtract from empty = %v, want empty", got)
	}
}
