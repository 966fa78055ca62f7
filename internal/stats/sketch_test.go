package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sketchDistributions are the sample-path generators the property tests
// sweep: the shapes named by the error-bound contract (uniform,
// exponential, bimodal, Zipf) covering light tails, heavy tails, widely
// separated modes, and discrete power-law values.
var sketchDistributions = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"uniform", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		return xs
	}},
	{"exponential", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 0.25
		}
		return xs
	}},
	{"bimodal", func(rng *rand.Rand, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			if rng.Float64() < 0.8 {
				xs[i] = 0.01 * (1 + 0.1*rng.NormFloat64())
			} else {
				xs[i] = 10 * (1 + 0.05*rng.NormFloat64())
			}
			if xs[i] <= 0 {
				xs[i] = 1e-6
			}
		}
		return xs
	}},
	{"zipf", func(rng *rand.Rand, n int) []float64 {
		z := rand.NewZipf(rng, 1.3, 1, 1<<20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(z.Uint64() + 1)
		}
		return xs
	}},
}

// exactRank is the order statistic Sketch.Quantile targets: the element
// at rank floor(q·(n−1)) of the sorted sample.
func exactRank(sorted []float64, q float64) float64 {
	return sorted[int(q*float64(len(sorted)-1))]
}

// TestSketchErrorBound is the documented accuracy contract: p50/p90/p99
// within alpha relative error of the exact order statistic, across
// distribution shapes, sample sizes from 10 to 10⁶, and two alphas. The
// 1e-9 slack absorbs float rounding in the log-binning at bucket edges.
func TestSketchErrorBound(t *testing.T) {
	for _, alpha := range []float64{0.01, 0.05} {
		for _, dist := range sketchDistributions {
			for _, n := range []int{10, 100, 10_000, 1_000_000} {
				rng := rand.New(rand.NewSource(42))
				xs := dist.gen(rng, n)
				sk, err := NewSketch(alpha)
				if err != nil {
					t.Fatal(err)
				}
				for _, x := range xs {
					if err := sk.Add(x); err != nil {
						t.Fatal(err)
					}
				}
				sorted := append([]float64(nil), xs...)
				sort.Float64s(sorted)
				for _, q := range []float64{0.5, 0.9, 0.99} {
					want := exactRank(sorted, q)
					got := sk.Quantile(q)
					if relErr := math.Abs(got-want) / math.Abs(want); relErr > alpha+1e-9 {
						t.Errorf("%s n=%d alpha=%g q=%g: sketch %g vs exact %g (rel err %.4g > %g)",
							dist.name, n, alpha, q, got, want, relErr, alpha)
					}
				}
				if sk.Min() != sorted[0] || sk.Max() != sorted[n-1] {
					t.Errorf("%s n=%d: min/max %g/%g, want exact %g/%g",
						dist.name, n, sk.Min(), sk.Max(), sorted[0], sorted[n-1])
				}
			}
		}
	}
}

// TestSketchMergeMatchesUnion: sketch(A ∪ B) and merge(sketch(A),
// sketch(B)) must agree bit-for-bit on every quantile (integer bucket
// counts add exactly); Sum only up to float reassociation.
func TestSketchMergeMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dist := range sketchDistributions {
		a := dist.gen(rng, 3000)
		b := dist.gen(rng, 1700)

		union, _ := NewSketch(DefaultSketchAlpha)
		for _, x := range append(append([]float64(nil), a...), b...) {
			_ = union.Add(x)
		}
		skA, _ := NewSketch(DefaultSketchAlpha)
		for _, x := range a {
			_ = skA.Add(x)
		}
		skB, _ := NewSketch(DefaultSketchAlpha)
		for _, x := range b {
			_ = skB.Add(x)
		}
		if err := skA.Merge(skB); err != nil {
			t.Fatal(err)
		}
		if skA.Count() != union.Count() {
			t.Fatalf("%s: merged count %d, union %d", dist.name, skA.Count(), union.Count())
		}
		for q := 0.0; q <= 1.0; q += 0.05 {
			if got, want := skA.Quantile(q), union.Quantile(q); got != want {
				t.Errorf("%s q=%g: merge %g != union %g", dist.name, q, got, want)
			}
		}
		if math.Abs(skA.Sum()-union.Sum()) > 1e-9*math.Abs(union.Sum()) {
			t.Errorf("%s: merged sum %g far from union %g", dist.name, skA.Sum(), union.Sum())
		}
	}
}

// TestSketchMergeAssociative: (a⋃b)⋃c and a⋃(b⋃c) yield identical
// quantiles — the property replica merging relies on.
func TestSketchMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parts := make([][]float64, 3)
	for i := range parts {
		parts[i] = sketchDistributions[i%len(sketchDistributions)].gen(rng, 500+200*i)
	}
	build := func(xs []float64) *Sketch {
		sk, _ := NewSketch(0.02)
		for _, x := range xs {
			_ = sk.Add(x)
		}
		return sk
	}
	left := build(parts[0])
	if err := left.Merge(build(parts[1])); err != nil {
		t.Fatal(err)
	}
	if err := left.Merge(build(parts[2])); err != nil {
		t.Fatal(err)
	}
	bc := build(parts[1])
	if err := bc.Merge(build(parts[2])); err != nil {
		t.Fatal(err)
	}
	right := build(parts[0])
	if err := right.Merge(bc); err != nil {
		t.Fatal(err)
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		if l, r := left.Quantile(q), right.Quantile(q); l != r {
			t.Errorf("q=%g: (a∪b)∪c %g != a∪(b∪c) %g", q, l, r)
		}
	}
	if left.Count() != right.Count() || left.Min() != right.Min() || left.Max() != right.Max() {
		t.Error("merge associativity broke count/min/max")
	}
}

// TestSketchDeterministic: identical streams produce identical sketches;
// quantiles depend on the multiset, not insertion order.
func TestSketchDeterministic(t *testing.T) {
	gen := func() *Sketch {
		rng := rand.New(rand.NewSource(99))
		sk, _ := NewSketch(DefaultSketchAlpha)
		for i := 0; i < 5000; i++ {
			_ = sk.Add(rng.ExpFloat64())
		}
		return sk
	}
	a, b := gen(), gen()
	for q := 0.0; q <= 1.0; q += 0.001 {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("fixed seed diverged at q=%g", q)
		}
	}
	// Insertion order must not matter either.
	rng := rand.New(rand.NewSource(99))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	fwd, _ := NewSketch(DefaultSketchAlpha)
	rev, _ := NewSketch(DefaultSketchAlpha)
	for _, x := range xs {
		_ = fwd.Add(x)
	}
	for i := len(xs) - 1; i >= 0; i-- {
		_ = rev.Add(xs[i])
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		if fwd.Quantile(q) != rev.Quantile(q) {
			t.Fatalf("insertion order changed q=%g", q)
		}
	}
}

// TestSketchNegativeZeroMixed: the mirrored negative store and the zero
// bucket keep the error bound and ordering across sign boundaries.
func TestSketchNegativeZeroMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 0, 9000)
	for i := 0; i < 4000; i++ {
		xs = append(xs, -rng.ExpFloat64())
	}
	for i := 0; i < 1000; i++ {
		xs = append(xs, 0)
	}
	for i := 0; i < 4000; i++ {
		xs = append(xs, rng.ExpFloat64())
	}
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sk, _ := NewSketch(DefaultSketchAlpha)
	for _, x := range xs {
		if err := sk.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		got := sk.Quantile(q)
		if got < prev {
			t.Fatalf("quantiles not monotone at q=%g: %g < %g", q, got, prev)
		}
		prev = got
		want := exactRank(sorted, q)
		if math.Abs(got-want) > DefaultSketchAlpha*math.Abs(want)+1e-9 {
			t.Errorf("q=%g: %g vs exact %g", q, got, want)
		}
	}
}

func TestSketchRejectsNonFinite(t *testing.T) {
	sk, _ := NewSketch(DefaultSketchAlpha)
	_ = sk.Add(1.5)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := sk.Add(x); err == nil {
			t.Errorf("Add(%g) accepted", x)
		}
	}
	if sk.Count() != 1 || sk.Sum() != 1.5 {
		t.Errorf("rejected values mutated the sketch: count %d sum %g", sk.Count(), sk.Sum())
	}
	if _, err := NewSketch(0); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := NewSketch(1); err == nil {
		t.Error("alpha 1 accepted")
	}
	a, _ := NewSketch(0.01)
	b, _ := NewSketch(0.02)
	if err := a.Merge(b); err == nil {
		t.Error("alpha-mismatched merge accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
}

func TestSketchEmptyAndReset(t *testing.T) {
	sk, _ := NewSketch(DefaultSketchAlpha)
	if sk.Quantile(0.5) != 0 || sk.Mean() != 0 || sk.Min() != 0 || sk.Max() != 0 {
		t.Error("empty sketch should report zeros")
	}
	for i := 0; i < 100; i++ {
		_ = sk.Add(float64(i + 1))
	}
	sk.Reset()
	if sk.Count() != 0 || sk.Buckets() != 0 || sk.Quantile(0.9) != 0 {
		t.Errorf("reset left residue: count %d buckets %d", sk.Count(), sk.Buckets())
	}
	_ = sk.Add(3)
	if sk.Quantile(0.5) != 3 {
		t.Errorf("post-reset quantile %g, want exactly 3 (clamped to min=max)", sk.Quantile(0.5))
	}
}

// TestSketchBoundedBuckets pins the memory model: bucket count grows with
// the data's dynamic range, not with n.
func TestSketchBoundedBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sk, _ := NewSketch(DefaultSketchAlpha)
	for i := 0; i < 200_000; i++ {
		_ = sk.Add(0.001 + rng.Float64()) // 3 decades of range
	}
	// 3 decades at alpha 0.01 is ~ln(1000)/ln(γ) ≈ 350 buckets.
	if sk.Buckets() > 500 {
		t.Errorf("%d buckets for a 3-decade stream of 200k values", sk.Buckets())
	}
}

// TestSketchCountLE is the CDF contract behind the histogram export: for
// any threshold, the reported count is exact over the sample multiset
// re-thresholded at (1±alpha)·x — a boundary bucket can only misplace
// values within the sketch's relative-error bound.
func TestSketchCountLE(t *testing.T) {
	for _, dist := range sketchDistributions {
		rng := rand.New(rand.NewSource(11))
		xs := dist.gen(rng, 50_000)
		sk, _ := NewSketch(DefaultSketchAlpha)
		for _, x := range xs {
			_ = sk.Add(x)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		countLE := func(th float64) int64 {
			n := sort.SearchFloat64s(sorted, math.Nextafter(th, math.Inf(1)))
			return int64(n)
		}
		thresholds := []float64{0, sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1], sorted[len(sorted)-1] * 2}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			thresholds = append(thresholds, exactRank(sorted, q))
		}
		prev := int64(-1)
		for _, th := range thresholds {
			got := sk.CountLE(th)
			lo := countLE(th * (1 - 2*DefaultSketchAlpha))
			hi := countLE(th * (1 + 2*DefaultSketchAlpha))
			if got < lo || got > hi {
				t.Errorf("%s: CountLE(%g) = %d outside [%d, %d]", dist.name, th, got, lo, hi)
			}
			if th >= sorted[len(sorted)-1] && got != int64(len(xs)) {
				t.Errorf("%s: CountLE at max = %d, want all %d", dist.name, got, len(xs))
			}
		}
		// Monotone over an ascending ladder.
		for _, th := range []float64{0, 1e-6, 1e-3, 0.1, 1, 10, 1e3, 1e6} {
			got := sk.CountLE(th)
			if got < prev {
				t.Errorf("%s: CountLE not monotone at %g: %d < %d", dist.name, th, got, prev)
			}
			prev = got
		}
		if sk.CountLE(-1) != 0 {
			t.Error("negative threshold should count nothing for a nonnegative stream")
		}
	}
}

// mapSketch is the sketch with its buckets in maps keyed by bucket key,
// walked in sorted key order: the store the dense arrays replaced, kept as
// the reference FuzzSketchDenseOracle compares them with. It borrows the
// real sketch's key and midpoint arithmetic, which the stores share.
type mapSketch struct {
	math     *Sketch
	pos, neg map[int]int64
	zero     int64
	count    int64
	min, max float64
}

func newMapSketch(sk *Sketch) *mapSketch {
	r := &mapSketch{math: sk}
	r.reset()
	return r
}

func (r *mapSketch) reset() {
	r.pos, r.neg = map[int]int64{}, map[int]int64{}
	r.zero, r.count = 0, 0
	r.min, r.max = math.Inf(1), math.Inf(-1)
}

func (r *mapSketch) add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	switch {
	case x > 0:
		r.pos[r.math.key(x)]++
	case x < 0:
		r.neg[r.math.key(-x)]++
	default:
		r.zero++
	}
	r.count++
	r.min, r.max = lower(r.min, x), higher(r.max, x)
}

// lower and higher keep the first of two equal values (so −0 and +0 stay
// as first seen), as the sketch's own min/max comparisons do.
func lower(a, b float64) float64 {
	if b < a {
		return b
	}
	return a
}

func higher(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}

func (r *mapSketch) merge(o *mapSketch) {
	for k, c := range o.pos {
		r.pos[k] += c
	}
	for k, c := range o.neg {
		r.neg[k] += c
	}
	r.zero += o.zero
	r.count += o.count
	if o.count > 0 {
		r.min, r.max = lower(r.min, o.min), higher(r.max, o.max)
	}
}

func (r *mapSketch) buckets() int {
	n := len(r.pos) + len(r.neg)
	if r.zero > 0 {
		n++
	}
	return n
}

func (r *mapSketch) clamp(v float64) float64 {
	if v < r.min {
		return r.min
	}
	if v > r.max {
		return r.max
	}
	return v
}

func (r *mapSketch) quantile(q float64) float64 {
	if r.count == 0 {
		return 0
	}
	if q <= 0 {
		return r.min
	}
	if q >= 1 {
		return r.max
	}
	idx := int64(q * float64(r.count-1))
	rank := int64(0)
	keys := sortedMapKeys(r.neg)
	for i := len(keys) - 1; i >= 0; i-- {
		if rank += r.neg[keys[i]]; rank > idx {
			return r.clamp(-r.math.bucketValue(keys[i]))
		}
	}
	if rank += r.zero; rank > idx {
		return r.clamp(0)
	}
	for _, k := range sortedMapKeys(r.pos) {
		if rank += r.pos[k]; rank > idx {
			return r.clamp(r.math.bucketValue(k))
		}
	}
	return r.max
}

func (r *mapSketch) countLE(x float64) int64 {
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	n := r.zero
	for _, c := range r.neg {
		n += c
	}
	if x == 0 {
		return n
	}
	if math.IsInf(x, 1) || x >= r.max {
		return r.count
	}
	kx := r.math.key(x)
	for k, c := range r.pos {
		if k <= kx {
			n += c
		}
	}
	return n
}

func sortedMapKeys(m map[int]int64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
