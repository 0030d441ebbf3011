// Package forest implements random-forest regression from scratch:
// CART trees grown by variance reduction, combined by bagging with
// per-split feature subsampling. Maya's default kernel-runtime
// estimators are forests trained on profiling data, following the
// paper (§4.3) and prior work it cites.
//
// Everything is deterministic given the seed, so trained estimators
// — and therefore every prediction experiment — are reproducible.
// Determinism is independent of parallelism: every tree derives its
// own seed (prand.HashInts(seed, tree, ...)), so training with any
// worker count produces byte-identical forests.
//
// Training presorts each feature column once per forest; every tree
// represents its bootstrap as multiplicities over distinct samples,
// filters the shared sorted order into its active columns with one
// linear pass, and stably partitions those columns down the
// recursion. No node ever sorts.
//
// Trained forests are stored flattened — struct-of-arrays node
// storage shared by all trees of the ensemble — so Predict walks
// contiguous int32/float64 arrays instead of chasing per-node
// pointers. Leaves are encoded as negative child indices: child c >= 0
// is internal node c, child c < 0 is leaf value leaf[^c].
package forest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"maya/internal/pool"
	"maya/internal/prand"
)

// Sample is one training observation.
type Sample struct {
	X []float64
	Y float64
}

// Options configures training. Zero fields take the package's generic
// defaults below. Suite training deliberately overrides Trees and
// MaxDepth (see estimator.TrainOptions, which pins Trees 16 and
// MaxDepth 12 for per-kernel forests).
type Options struct {
	Trees       int     // number of trees (default 24)
	MaxDepth    int     // maximum tree depth (default 14)
	MinLeaf     int     // minimum samples per leaf (default 2)
	FeatureFrac float64 // features considered per split (default 0.7)
	SampleFrac  float64 // bootstrap fraction per tree (default 0.85)
	Seed        uint64
	// Workers bounds tree-training parallelism in Train (default 1,
	// serial). The forest is byte-identical for every worker count.
	// TrainForests ignores this field: its pool spans all jobs.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Trees == 0 {
		o.Trees = 24
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 14
	}
	if o.MinLeaf == 0 {
		o.MinLeaf = 2
	}
	if o.FeatureFrac == 0 {
		o.FeatureFrac = 0.7
	}
	if o.SampleFrac == 0 {
		o.SampleFrac = 0.85
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// Forest is a trained ensemble in flattened struct-of-arrays form:
// one contiguous node store shared by all trees. Internal node i
// splits on feature feat[i] at thresh[i]; its children are left[i]
// and right[i], where a non-negative child is another internal node
// and a negative child c encodes leaf value leaf[^c]. roots[t] is
// tree t's entry point (itself possibly a leaf encoding, for
// single-node trees).
type Forest struct {
	roots  []int32
	feat   []int32
	thresh []float64
	left   []int32
	right  []int32
	leaf   []float64
}

// NumNodes returns the total internal-node count across all trees
// (sizing/diagnostics; leaves are stored separately).
func (f *Forest) NumNodes() int { return len(f.feat) }

// Predict returns the ensemble mean for x. The walk is allocation-
// free: each tree descends the flattened arrays until it hits a
// negative (leaf) index.
func (f *Forest) Predict(x []float64) float64 {
	feat, thresh, left, right, leaf := f.feat, f.thresh, f.left, f.right, f.leaf
	var sum float64
	for _, root := range f.roots {
		id := root
		for id >= 0 {
			if x[feat[id]] <= thresh[id] {
				id = left[id]
			} else {
				id = right[id]
			}
		}
		sum += leaf[^id]
	}
	return sum / float64(len(f.roots))
}

// Train fits a forest to the samples. opts.Workers > 1 trains trees
// through a bounded pool; the result is byte-identical to serial.
func Train(samples []Sample, opts Options) (*Forest, error) {
	fs, err := TrainForests([]TrainJob{{Samples: samples, Opts: opts}}, opts.Workers)
	if err != nil {
		return nil, err
	}
	return fs[0], nil
}

// TrainJob is one forest-training request for TrainForests.
type TrainJob struct {
	Samples []Sample
	Opts    Options
}

// TrainForests trains many forests through one bounded worker pool
// spanning every (forest, tree) task — the shape suite training
// wants, where a handful of kernel classes each grow a dozen trees
// and neither axis alone saturates the machine. workers < 1 means
// serial. Each job's feature columns are presorted once and shared
// read-only by all of its trees; each worker reuses its
// weight/partition scratch across the trees it grows. Because
// per-tree seeds are independently derived, the assembled forests
// are byte-identical regardless of worker count or scheduling order.
func TrainForests(jobs []TrainJob, workers int) ([]*Forest, error) {
	type task struct{ job, tree int }
	data := make([]*jobData, len(jobs))
	var tasks []task
	for j := range jobs {
		if len(jobs[j].Samples) == 0 {
			return nil, jobErr(len(jobs), j, errors.New("forest: no training samples"))
		}
		nf := len(jobs[j].Samples[0].X)
		for i, s := range jobs[j].Samples {
			if len(s.X) != nf {
				return nil, jobErr(len(jobs), j,
					fmt.Errorf("forest: sample %d has %d features, want %d", i, len(s.X), nf))
			}
		}
		data[j] = buildJobData(jobs[j].Samples, jobs[j].Opts.withDefaults())
		for t := 0; t < data[j].opts.Trees; t++ {
			tasks = append(tasks, task{j, t})
		}
	}

	trees := make([][]*flatTree, len(jobs))
	for j := range jobs {
		trees[j] = make([]*flatTree, data[j].opts.Trees)
	}
	// One builder per worker, rebound when its worker crosses into
	// another job's tasks.
	builders := make([]builder, max(workers, 1))
	err := pool.Each(context.TODO(), len(tasks), workers, func(w, i int) error {
		tk, b := tasks[i], &builders[w]
		if b.jd != data[tk.job] {
			b.bind(data[tk.job])
		}
		trees[tk.job][tk.tree] = b.growTree(tk.tree)
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]*Forest, len(jobs))
	for j := range jobs {
		f := &Forest{}
		for _, t := range trees[j] {
			f.appendTree(t)
		}
		out[j] = f
	}
	return out, nil
}

// jobErr contextualizes a validation error with its job index when
// the batch has more than one job.
func jobErr(njobs, j int, err error) error {
	if njobs == 1 {
		return err
	}
	return fmt.Errorf("forest: job %d: %w", j, err)
}

// jobData is one job's read-only training matrix, shared by every
// worker growing its trees: column-major features, targets, and each
// feature's sample order presorted by (value, index) — the sort paid
// once per forest instead of once per tree (let alone per node).
type jobData struct {
	opts  Options
	nf, n int
	k     int         // bootstrap draws per tree
	xcol  [][]float64 // xcol[f][i]: feature f of sample i
	ys    []float64   // ys[i]: target of sample i
	order [][]int32   // order[f]: sample indices sorted by (xcol[f], i)
	// live lists the features with at least two distinct values;
	// constant columns can never split (adjacent equal values are
	// always skipped), so dropping them up front changes nothing in
	// the grown trees while skipping their share of every filter and
	// partition pass. Kernel-feature matrices are full of them: a
	// memcpy class varies in exactly one of its fourteen features.
	live    []int
	liveSet []bool
}

func buildJobData(samples []Sample, opts Options) *jobData {
	n := len(samples)
	nf := len(samples[0].X)
	jd := &jobData{
		opts: opts, nf: nf, n: n,
		xcol:  make([][]float64, nf),
		ys:    make([]float64, n),
		order: make([][]int32, nf),
	}
	jd.k = int(float64(n) * opts.SampleFrac)
	if jd.k < 1 {
		jd.k = 1
	}
	for f := 0; f < nf; f++ {
		jd.xcol[f] = make([]float64, n)
	}
	for i := range samples {
		jd.ys[i] = samples[i].Y
		for f := 0; f < nf; f++ {
			jd.xcol[f][i] = samples[i].X[f]
		}
	}
	jd.liveSet = make([]bool, nf)
	for f := 0; f < nf; f++ {
		xf := jd.xcol[f]
		for i := 1; i < n; i++ {
			if xf[i] != xf[0] {
				jd.live = append(jd.live, f)
				jd.liveSet[f] = true
				break
			}
		}
		if !jd.liveSet[f] {
			continue
		}
		ord := make([]int32, n)
		for i := range ord {
			ord[i] = int32(i)
		}
		// The tie-break on index makes the order — and therefore the
		// whole forest — deterministic independent of the sort
		// algorithm.
		sort.Slice(ord, func(a, b int) bool {
			va, vb := xf[ord[a]], xf[ord[b]]
			if va != vb {
				return va < vb
			}
			return ord[a] < ord[b]
		})
		jd.order[f] = ord
	}
	return jd
}

// flatTree is one grown tree with tree-local node/leaf indices,
// merged into the forest's shared arrays by appendTree.
type flatTree struct {
	root   int32
	feat   []int32
	thresh []float64
	left   []int32
	right  []int32
	leaf   []float64
}

func (t *flatTree) addLeaf(value float64) int32 {
	t.leaf = append(t.leaf, value)
	return -int32(len(t.leaf)) // ^id == len(t.leaf)-1
}

func (t *flatTree) addSplit(feat int, thresh float64) int32 {
	t.feat = append(t.feat, int32(feat))
	t.thresh = append(t.thresh, thresh)
	t.left = append(t.left, 0)
	t.right = append(t.right, 0)
	return int32(len(t.feat) - 1)
}

// appendTree merges a tree into the forest's shared arrays, shifting
// node indices by the node offset and leaf encodings by the leaf
// offset.
func (f *Forest) appendTree(t *flatTree) {
	nodeOff := int32(len(f.feat))
	leafOff := int32(len(f.leaf))
	shift := func(c int32) int32 {
		if c >= 0 {
			return c + nodeOff
		}
		return c - leafOff
	}
	for _, c := range t.left {
		f.left = append(f.left, shift(c))
	}
	for _, c := range t.right {
		f.right = append(f.right, shift(c))
	}
	f.feat = append(f.feat, t.feat...)
	f.thresh = append(f.thresh, t.thresh...)
	f.leaf = append(f.leaf, t.leaf...)
	f.roots = append(f.roots, shift(t.root))
}

// builder grows trees over a shared jobData. A tree's bootstrap is a
// multiplicity vector over distinct samples; its active columns are
// the presorted orders filtered to drawn samples (one linear pass per
// feature), stably partitioned down the recursion. All scratch is
// reused across the trees a worker grows.
type builder struct {
	jd  *jobData
	rng *prand.SplitMix64

	w    []int32   // w[i]: bootstrap multiplicity of sample i
	cols [][]int32 // cols[f]: drawn sample indices in presorted order
	tmp  []int32   // partition scratch
	side []bool    // side[i]: sample i goes left in the current split
	perm []int     // feature-subset scratch
	t    flatTree  // tree under construction (arrays not reused)
}

// bind points the builder at a job, sizing scratch for it.
func (b *builder) bind(jd *jobData) {
	b.jd = jd
	grow := func(n int, s []int32) []int32 {
		if cap(s) < n {
			return make([]int32, n)
		}
		return s[:n]
	}
	b.w = grow(jd.n, b.w)
	b.tmp = grow(jd.n, b.tmp)
	if cap(b.side) < jd.n {
		b.side = make([]bool, jd.n)
	}
	b.side = b.side[:jd.n]
	if cap(b.perm) < jd.nf {
		b.perm = make([]int, jd.nf)
	}
	b.perm = b.perm[:jd.nf]
	for len(b.cols) < jd.nf {
		b.cols = append(b.cols, nil)
	}
	b.cols = b.cols[:jd.nf]
	for f := range b.cols {
		b.cols[f] = grow(jd.n, b.cols[f])
	}
}

// growTree draws the bootstrap, filters the shared sorted orders into
// the tree's active columns, and grows one tree. The returned tree's
// arrays are freshly allocated (they outlive the builder's scratch).
func (b *builder) growTree(tree int) *flatTree {
	jd := b.jd
	b.rng = prand.New(prand.HashInts(jd.opts.Seed, int64(tree), 0xf0e57))
	clear(b.w[:jd.n])
	for d := 0; d < jd.k; d++ {
		b.w[b.rng.Intn(jd.n)]++
	}
	b.t = flatTree{}
	if len(jd.live) == 0 {
		// Every feature is constant: the tree is one weighted-mean
		// leaf (no split could ever be accepted).
		var sum float64
		wTot := 0
		for i := 0; i < jd.n; i++ {
			sum += float64(b.w[i]) * jd.ys[i]
			wTot += int(b.w[i])
		}
		b.t.root = b.t.addLeaf(sum / float64(wTot))
	} else {
		m := 0
		for _, f := range jd.live {
			dst := b.cols[f][:0]
			for _, i := range jd.order[f] {
				if b.w[i] > 0 {
					dst = append(dst, i)
				}
			}
			b.cols[f] = dst
			m = len(dst)
		}
		b.t.root = b.grow(0, m, 0)
	}
	t := b.t
	b.t = flatTree{}
	return &t
}

// grow builds the subtree over segment [lo, hi) of the active column
// arrays, returning its node (or leaf) encoding.
func (b *builder) grow(lo, hi, depth int) int32 {
	mean, sse, sum, sumSq, wTot := b.segStats(lo, hi)
	if depth >= b.jd.opts.MaxDepth || wTot < 2*b.jd.opts.MinLeaf || sse < 1e-12 {
		return b.t.addLeaf(mean)
	}
	feat, thresh, ok := b.bestSplit(lo, hi, sse, sum, sumSq, float64(wTot))
	if !ok {
		return b.t.addLeaf(mean)
	}
	// The split feature's column is sorted, so the left side is the
	// <= thresh prefix. Counting against the actual predicate (rather
	// than trusting the scan position) keeps the midpoint-rounds-to-
	// the-right-value edge case safe; the MinLeaf guard then rejects
	// any degenerate partition.
	sIdx := b.countLeft(lo, hi, feat, thresh)
	wl := 0
	for _, i := range b.cols[feat][lo : lo+sIdx] {
		wl += int(b.w[i])
	}
	if wl < b.jd.opts.MinLeaf || wTot-wl < b.jd.opts.MinLeaf {
		return b.t.addLeaf(mean)
	}
	b.partition(lo, hi, feat, sIdx)
	id := b.t.addSplit(feat, thresh)
	left := b.grow(lo, lo+sIdx, depth+1)
	right := b.grow(lo+sIdx, hi, depth+1)
	b.t.left[id], b.t.right[id] = left, right
	return id
}

// segStats accumulates the segment's weighted target statistics in
// presorted (first-column) order.
func (b *builder) segStats(lo, hi int) (mean, sse, sum, sumSq float64, wTot int) {
	ys, w := b.jd.ys, b.w
	for _, i := range b.cols[b.jd.live[0]][lo:hi] {
		wf := float64(w[i])
		y := ys[i]
		wy := wf * y
		sum += wy
		sumSq += wy * y
		wTot += int(w[i])
	}
	n := float64(wTot)
	mean = sum / n
	sse = sumSq - sum*sum/n
	if sse < 0 {
		sse = 0
	}
	return mean, sse, sum, sumSq, wTot
}

// bestSplit scans a random feature subset for the split with the
// largest SSE reduction. Each candidate feature's samples are already
// in sorted order, so the scan is a single weighted pass of prefix
// sums — the O(n log n) per-node re-sort of the pointer-tree builder
// is gone.
func (b *builder) bestSplit(lo, hi int, parentSSE, sumY, sumSqY, wTot float64) (feat int, thresh float64, ok bool) {
	jd := b.jd
	k := int(math.Ceil(jd.opts.FeatureFrac * float64(jd.nf)))
	if k < 1 {
		k = 1
	}
	sel := b.rng.PermInto(b.perm)[:k]
	sort.Ints(sel) // deterministic evaluation order

	best := parentSSE - 1e-12
	minLeaf := jd.opts.MinLeaf
	ys, w := jd.ys, b.w
	for _, f := range sel {
		if !jd.liveSet[f] {
			continue // globally constant: no split exists
		}
		col := b.cols[f][lo:hi]
		xf := jd.xcol[f]
		if xf[col[0]] == xf[col[len(col)-1]] {
			continue // constant over this segment: the scan would find nothing
		}
		var sumL, sumSqL, wl float64
		sumR, sumSqR, wr := sumY, sumSqY, wTot
		for idx := 0; idx < len(col)-1; idx++ {
			i := col[idx]
			wf := float64(w[i])
			y := ys[i]
			wy := wf * y
			wyy := wy * y
			sumL += wy
			sumSqL += wyy
			sumR -= wy
			sumSqR -= wyy
			wl += wf
			wr -= wf
			xv := xf[i]
			xn := xf[col[idx+1]]
			if xn <= xv {
				continue // cannot split between equal values
			}
			if int(wl) < minLeaf || int(wr) < minLeaf {
				continue
			}
			sse := (sumSqL - sumL*sumL/wl) + (sumSqR - sumR*sumR/wr)
			if sse < best {
				best = sse
				feat = f
				thresh = (xv + xn) / 2
				ok = true
			}
		}
	}
	return feat, thresh, ok
}

// countLeft returns how many active samples of the segment satisfy
// x[feat] <= thresh, by binary search over the feature's sorted
// column.
func (b *builder) countLeft(lo, hi, feat int, thresh float64) int {
	col := b.cols[feat][lo:hi]
	xf := b.jd.xcol[feat]
	return sort.Search(len(col), func(i int) bool { return xf[col[i]] > thresh })
}

// partition stably splits every feature column's segment: left-going
// samples keep their sorted order in [lo, lo+sIdx), right-going ones
// in [lo+sIdx, hi) — which is what lets child nodes scan without
// re-sorting. Membership comes straight from the split feature's
// column (its <= thresh prefix IS the left side, so that column is
// already partitioned and is skipped), recorded in a byte sidecar so
// the other columns route without touching feature values.
func (b *builder) partition(lo, hi, feat int, sIdx int) {
	split := b.cols[feat][lo:hi]
	for _, i := range split[:sIdx] {
		b.side[i] = true
	}
	for _, i := range split[sIdx:] {
		b.side[i] = false
	}
	for _, f := range b.jd.live {
		if f == feat {
			continue
		}
		col := b.cols[f][lo:hi]
		// Lefts compact in place (their writes never pass the read
		// cursor); rights stage in scratch and copy back once.
		li, ri := 0, 0
		for _, i := range col {
			if b.side[i] {
				col[li] = i
				li++
			} else {
				b.tmp[ri] = i
				ri++
			}
		}
		copy(col[sIdx:], b.tmp[:ri])
	}
}

// MAPE computes mean absolute percentage error of the forest on a
// test set, with predictions and targets transformed by inv (pass
// identity when Y is the raw target).
func (f *Forest) MAPE(test []Sample, inv func(float64) float64) float64 {
	if inv == nil {
		inv = func(v float64) float64 { return v }
	}
	var total float64
	var n int
	for _, s := range test {
		want := inv(s.Y)
		if want == 0 {
			continue
		}
		got := inv(f.Predict(s.X))
		total += math.Abs(got-want) / math.Abs(want)
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// SplitN deterministically partitions items by a seeded permutation,
// sending the first nTest permuted items to test and the rest to
// train — the one seeded holdout-split implementation shared by
// Split and estimator.TrainAndEvaluate.
func SplitN[T any](items []T, nTest int, seed uint64) (train, test []T) {
	if nTest < 0 {
		nTest = 0
	}
	if nTest > len(items) {
		nTest = len(items)
	}
	rng := prand.New(seed)
	perm := rng.Perm(len(items))
	test = make([]T, 0, nTest)
	train = make([]T, 0, len(items)-nTest)
	for i, p := range perm {
		if i < nTest {
			test = append(test, items[p])
		} else {
			train = append(train, items[p])
		}
	}
	return train, test
}

// Split partitions samples into train/test deterministically
// (fraction testFrac to test), for held-out evaluation.
func Split(samples []Sample, testFrac float64, seed uint64) (train, test []Sample) {
	return SplitN(samples, int(float64(len(samples))*testFrac), seed)
}
