package forest

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"maya/internal/prand"
)

// genSamples draws n points from f over [0,1]^d with optional noise.
func genSamples(n, d int, seed uint64, noise float64, f func([]float64) float64) []Sample {
	rng := prand.New(seed)
	out := make([]Sample, n)
	for i := range out {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		y := f(x)
		if noise > 0 {
			y += noise * rng.NormFloat64()
		}
		out[i] = Sample{X: x, Y: y}
	}
	return out
}

// fit trains one forest serially.
func fit(samples []Sample, opts Options) (*Forest, error) {
	fs, err := TrainForests([]TrainJob{{Samples: samples, Opts: opts}}, 1)
	if err != nil {
		return nil, err
	}
	return fs[0], nil
}

// mapeOf is the forest's mean absolute percentage error on test, with
// predictions and targets mapped through inv first.
func mapeOf(f *Forest, test []Sample, inv func(float64) float64) float64 {
	var total float64
	var n int
	for _, s := range test {
		want := inv(s.Y)
		if want == 0 {
			continue
		}
		total += math.Abs(inv(f.Predict(s.X))-want) / math.Abs(want)
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func TestFitsAdditiveFunction(t *testing.T) {
	f := func(x []float64) float64 { return 3*x[0] + x[1]*x[1] - 0.5*x[2] }
	train := genSamples(3000, 3, 1, 0.01, f)
	test := genSamples(300, 3, 2, 0, f)
	fr, err := fit(train, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var mse float64
	for _, s := range test {
		d := fr.Predict(s.X) - s.Y
		mse += d * d
	}
	mse /= float64(len(test))
	if mse > 0.01 {
		t.Fatalf("test MSE = %v, want < 0.01", mse)
	}
}

func TestFitsStepFunction(t *testing.T) {
	// Trees should nail axis-aligned steps.
	f := func(x []float64) float64 {
		if x[0] > 0.5 {
			return 10
		}
		return -10
	}
	fr, err := fit(genSamples(1000, 2, 3, 0, f), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if v := fr.Predict([]float64{0.9, 0.5}); math.Abs(v-10) > 0.5 {
		t.Fatalf("high side = %v", v)
	}
	if v := fr.Predict([]float64{0.1, 0.5}); math.Abs(v+10) > 0.5 {
		t.Fatalf("low side = %v", v)
	}
}

func TestDeterministicTraining(t *testing.T) {
	train := genSamples(500, 4, 5, 0.05, func(x []float64) float64 { return x[0] * x[3] })
	a, err := fit(train, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := fit(train, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.1, 0.9, 0.7}
	if a.Predict(probe) != b.Predict(probe) {
		t.Fatal("same seed, different forests")
	}
	c, _ := fit(train, Options{Seed: 10})
	if a.Predict(probe) == c.Predict(probe) {
		t.Fatal("different seeds produced identical forests (suspicious)")
	}
}

func TestPredictionsWithinTargetRange(t *testing.T) {
	// Property: a tree ensemble's prediction is a convex combination
	// of training targets, so it can never leave their range.
	if err := quick.Check(func(seed uint64) bool {
		train := genSamples(200, 3, seed, 0, func(x []float64) float64 { return math.Sin(6 * x[0]) })
		fr, err := fit(train, Options{Seed: seed, Trees: 8, MaxDepth: 6})
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range train {
			lo = math.Min(lo, s.Y)
			hi = math.Max(hi, s.Y)
		}
		rng := prand.New(seed + 1)
		for i := 0; i < 50; i++ {
			x := []float64{rng.Float64() * 2, rng.Float64() * 2, rng.Float64() * 2}
			v := fr.Predict(x)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMAPEWithTransform(t *testing.T) {
	// Train in log space, evaluate MAPE in linear space.
	f := func(x []float64) float64 { return math.Log(1000 * (1 + 9*x[0])) }
	train := genSamples(2000, 2, 11, 0.005, f)
	test := genSamples(200, 2, 12, 0, f)
	fr, err := fit(train, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mape := mapeOf(fr, test, math.Exp)
	if mape > 0.05 {
		t.Fatalf("MAPE = %.1f%%, want < 5%%", mape*100)
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	samples := genSamples(100, 2, 13, 0, func(x []float64) float64 { return x[0] })
	train, test := SplitN(samples, 20, 42)
	if len(test) != 20 || len(train) != 80 {
		t.Fatalf("split sizes = %d/%d", len(train), len(test))
	}
	seen := map[*float64]bool{}
	for _, part := range [][]Sample{train, test} {
		for _, s := range part {
			if seen[&s.X[0]] {
				t.Fatal("a sample landed in the split twice")
			}
			seen[&s.X[0]] = true
		}
	}
}

func TestErrors(t *testing.T) {
	if _, err := fit(nil, Options{}); err == nil {
		t.Fatal("expected error for empty training set")
	}
	bad := []Sample{{X: []float64{1, 2}, Y: 0}, {X: []float64{1}, Y: 0}}
	if _, err := fit(bad, Options{}); err == nil {
		t.Fatal("expected error for inconsistent feature lengths")
	}
}

// refNode is the pointer-tree view of a flattened forest, for the
// bit-identity property test: the flat walk must agree exactly with
// the classic pointer walk over the same trees.
type refNode struct {
	feature     int
	thresh      float64
	left, right *refNode
	value       float64
}

// refTrees materializes the forest's flattened node store back into
// pointer trees.
func refTrees(f *Forest) []*refNode {
	var build func(id int32) *refNode
	build = func(id int32) *refNode {
		if id < 0 {
			return &refNode{value: f.leaf[^id]}
		}
		return &refNode{
			feature: int(f.feat[id]),
			thresh:  f.thresh[id],
			left:    build(f.left[id]),
			right:   build(f.right[id]),
		}
	}
	trees := make([]*refNode, len(f.roots))
	for i, r := range f.roots {
		trees[i] = build(r)
	}
	return trees
}

// refPredict is the pointer-tree ensemble walk, accumulating in tree
// order exactly like Forest.Predict.
func refPredict(trees []*refNode, x []float64) float64 {
	var sum float64
	for _, tr := range trees {
		n := tr
		for n.left != nil {
			if x[n.feature] <= n.thresh {
				n = n.left
			} else {
				n = n.right
			}
		}
		sum += n.value
	}
	return sum / float64(len(trees))
}

func TestFlatPredictMatchesPointerWalk(t *testing.T) {
	// Property: across randomized forests and inputs, the flattened
	// struct-of-arrays walk is bit-identical to the pointer-tree walk
	// (same comparisons, same leaf values, same summation order).
	if err := quick.Check(func(seed uint64) bool {
		train := genSamples(300, 4, seed, 0.05, func(x []float64) float64 {
			return x[0]*x[3] + math.Sin(4*x[1])
		})
		fr, err := fit(train, Options{Seed: seed, Trees: 6, MaxDepth: 7})
		if err != nil {
			return false
		}
		trees := refTrees(fr)
		rng := prand.New(seed ^ 0xabcdef)
		for i := 0; i < 100; i++ {
			// Probe beyond the training range too: out-of-range inputs
			// exercise every branch direction.
			x := []float64{
				rng.Float64()*3 - 1, rng.Float64()*3 - 1,
				rng.Float64()*3 - 1, rng.Float64()*3 - 1,
			}
			if fr.Predict(x) != refPredict(trees, x) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLeafEncodingRoundTrips(t *testing.T) {
	// Single-node trees encode their root as a leaf index; a constant
	// target forces exactly that shape.
	train := genSamples(50, 2, 23, 0, func([]float64) float64 { return 1.5 })
	fr, err := fit(train, Options{Seed: 3, Trees: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range fr.roots {
		if root >= 0 {
			t.Fatalf("constant-target tree has internal root %d", root)
		}
	}
	if v := fr.Predict([]float64{0.1, 0.9}); v != 1.5 {
		t.Fatalf("Predict = %v, want 1.5", v)
	}
}

func TestTrainParallelMatchesSerial(t *testing.T) {
	train := genSamples(1200, 5, 31, 0.05, func(x []float64) float64 {
		return 2*x[0] - x[1]*x[4] + x[2]
	})
	job := []TrainJob{{Samples: train, Opts: Options{Seed: 11}}}
	serial, err := TrainForests(job, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := TrainForests(job, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel training produced a different forest than serial")
	}
}

func TestTrainForestsMatchesIndividualTrain(t *testing.T) {
	jobs := []TrainJob{
		{Samples: genSamples(400, 3, 41, 0.02, func(x []float64) float64 { return x[0] + x[1] }),
			Opts: Options{Seed: 1, Trees: 5, MaxDepth: 6}},
		{Samples: genSamples(250, 2, 43, 0.02, func(x []float64) float64 { return x[0] * x[1] }),
			Opts: Options{Seed: 2, Trees: 3, MaxDepth: 5}},
		{Samples: genSamples(90, 4, 47, 0, func(x []float64) float64 { return x[3] }),
			Opts: Options{Seed: 3, Trees: 8, MaxDepth: 4}},
	}
	batch, err := TrainForests(jobs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		lone, err := fit(job.Samples, job.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], lone) {
			t.Fatalf("job %d: pooled TrainForests result differs from lone Train", i)
		}
	}
}

func TestTrainForestsValidatesPerJob(t *testing.T) {
	good := genSamples(50, 2, 51, 0, func(x []float64) float64 { return x[0] })
	if _, err := TrainForests([]TrainJob{{Samples: good}, {}}, 2); err == nil {
		t.Fatal("expected error for empty job in batch")
	}
	bad := []Sample{{X: []float64{1, 2}, Y: 0}, {X: []float64{1}, Y: 0}}
	if _, err := TrainForests([]TrainJob{{Samples: good}, {Samples: bad}}, 2); err == nil {
		t.Fatal("expected error for inconsistent features in batch")
	}
}

func TestOptionsDefaultsPinned(t *testing.T) {
	// The package's generic defaults and growth constants. Suite
	// training sets Trees and MaxDepth (pinned on the estimator side);
	// this test keeps the doc comments honest.
	o := Options{}.withDefaults()
	if o.Trees != 24 || o.MaxDepth != 14 {
		t.Fatalf("generic forest defaults changed: %+v", o)
	}
	if minLeaf != 2 || featureFrac != 0.7 || sampleFrac != 0.85 {
		t.Fatalf("growth constants changed: minLeaf %d, featureFrac %v, sampleFrac %v",
			minLeaf, featureFrac, sampleFrac)
	}
}

func TestAllConstantFeaturesYieldMeanLeaf(t *testing.T) {
	// Every feature identical across samples: no split exists, every
	// tree is a single weighted-mean leaf, and predictions stay
	// within the target range.
	samples := make([]Sample, 60)
	for i := range samples {
		samples[i] = Sample{X: []float64{1, 2, 3}, Y: float64(i % 7)}
	}
	fr, err := fit(samples, Options{Seed: 5, Trees: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.feat) != 0 {
		t.Fatalf("constant-feature forest has %d internal nodes, want 0", len(fr.feat))
	}
	if v := fr.Predict([]float64{9, 9, 9}); v < 0 || v > 6 {
		t.Fatalf("Predict = %v, outside target range [0, 6]", v)
	}
}

func TestSplitNDeterministicAndClamped(t *testing.T) {
	samples := genSamples(137, 2, 61, 0, func(x []float64) float64 { return x[1] })
	train1, test1 := SplitN(samples, 27, 99)
	train2, test2 := SplitN(samples, 27, 99)
	if !reflect.DeepEqual(train1, train2) || !reflect.DeepEqual(test1, test2) {
		t.Fatal("SplitN differs between two calls with the same seed and test count")
	}
	// Degenerate bounds clamp instead of panicking.
	tr, te := SplitN(samples, -5, 1)
	if len(te) != 0 || len(tr) != len(samples) {
		t.Fatalf("SplitN(-5): %d/%d", len(tr), len(te))
	}
	tr, te = SplitN(samples, len(samples)+5, 1)
	if len(tr) != 0 || len(te) != len(samples) {
		t.Fatalf("SplitN(n+5): %d/%d", len(tr), len(te))
	}
}

func TestConstantTargetYieldsConstantForest(t *testing.T) {
	train := genSamples(100, 2, 17, 0, func([]float64) float64 { return 5 })
	fr, err := fit(train, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v := fr.Predict([]float64{0.5, 0.5}); math.Abs(v-5) > 1e-9 {
		t.Fatalf("constant fit = %v", v)
	}
}
