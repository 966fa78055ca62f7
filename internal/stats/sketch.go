package stats

import (
	"fmt"
	"math"
)

// DefaultSketchAlpha is the relative-error bound serving runs use unless
// configured otherwise: quantile estimates land within ±1% of the true
// sample value.
const DefaultSketchAlpha = 0.01

// Sketch is a DDSketch-style streaming quantile summary: values are
// binned into geometrically spaced buckets so that any value in a bucket
// is within a factor (1±alpha) of the bucket's midpoint estimate. It
// replaces exact-sample percentiles where retaining every observation is
// unaffordable (10⁸-request serving runs), with these contracts:
//
//   - Relative error: for any quantile q of n finite observations,
//     |Quantile(q) − exact(q)| ≤ alpha·|exact(q)|, where exact(q) is the
//     rank-floor(q·(n−1)) order statistic. Enforced by property tests in
//     sketch_test.go and documented in docs/serving-model.md §15.
//   - Exact merge: bucket counts are integers, so Merge is associative
//     and commutative — merging per-replica sketches yields
//     bit-identical quantiles to sketching the union stream. (Sum is a
//     float accumulator and only reorder-tolerant, not bit-stable.)
//   - Determinism: quantiles depend only on the bucket multiset, never
//     on insertion order.
//
// Bucket counts live in dense stores (DDSketch's dense store): one int64
// cell per key between the smallest and largest key seen, so Add is an
// array increment and quantile walks need no sort. Memory is bounded by
// the dynamic range of the data, not by n (float64's full positive range
// spans ~75k keys at alpha 0.01; real latency streams span a few
// hundred). The zero value is not usable — construct with NewSketch.
type Sketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64

	// pos/neg hold counts per geometric bucket for positive and negative
	// observations (neg is keyed by |x|); zero counts exact zeros.
	pos, neg denseStore
	zero     int64

	count    int64
	sum      float64
	min, max float64
}

// NewSketch builds an empty sketch with the given relative-error bound
// alpha in (0, 1). Use DefaultSketchAlpha unless the caller documents a
// different accuracy contract.
func NewSketch(alpha float64) (*Sketch, error) {
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("stats: sketch alpha %g outside (0, 1)", alpha)
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:   alpha,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}, nil
}

// Alpha returns the sketch's relative-error bound.
func (s *Sketch) Alpha() float64 { return s.alpha }

// Count returns the number of observations added (and merged in).
func (s *Sketch) Count() int64 { return s.count }

// Sum returns the running sum of all observations. Float accumulation
// order follows insertion/merge order, so Sum (and Mean) are exact only
// up to floating-point reassociation.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns Sum/Count, or 0 for an empty sketch.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest observation, exactly (0 if empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, exactly (0 if empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Buckets returns the number of occupied buckets: distinct bucket keys
// holding at least one observation, plus one for exact zeros.
func (s *Sketch) Buckets() int {
	n := s.pos.occupied + s.neg.occupied
	if s.zero > 0 {
		n++
	}
	return n
}

// key maps a positive magnitude to its geometric bucket: the unique k
// with gamma^(k-1) < x ≤ gamma^k.
func (s *Sketch) key(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lnGamma))
}

// bucketValue is the bucket's midpoint estimate 2·gamma^k/(gamma+1),
// within a factor (1±alpha) of every value the bucket holds.
func (s *Sketch) bucketValue(k int) float64 {
	return 2 * math.Exp(float64(k)*s.lnGamma) / (s.gamma + 1)
}

// Add records one observation. NaN and ±Inf are rejected with an error
// and leave the sketch unchanged — a geometric binning has no bucket for
// them, and silently dropping samples would corrupt Count-based ranks.
func (s *Sketch) Add(x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("stats: sketch cannot hold non-finite value %g", x)
	}
	switch {
	case x > 0:
		s.pos.add(s.key(x), 1)
	case x < 0:
		s.neg.add(s.key(-x), 1)
	default:
		s.zero++
	}
	s.count++
	s.sum += x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	return nil
}

// Merge folds o into s. Both sketches must share one alpha: bucket
// boundaries differ otherwise and the merged counts would be meaningless.
// Merging is exact — integer bucket counts add — so quantiles of the
// merge equal quantiles of sketching the union stream bit for bit.
func (s *Sketch) Merge(o *Sketch) error {
	if o == nil {
		return fmt.Errorf("stats: cannot merge nil sketch")
	}
	if o.alpha != s.alpha {
		return fmt.Errorf("stats: sketch alpha mismatch: %g vs %g", s.alpha, o.alpha)
	}
	s.pos.merge(&o.pos)
	s.neg.merge(&o.neg)
	s.zero += o.zero
	s.count += o.count
	s.sum += o.sum
	if o.count > 0 {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	return nil
}

// Reset empties the sketch in place, keeping its stores' capacity.
func (s *Sketch) Reset() {
	s.pos.reset()
	s.neg.reset()
	s.zero = 0
	s.count = 0
	s.sum = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
}

// Quantile estimates the q-quantile (q clamped to [0, 1]) as the bucket
// midpoint covering the rank-floor(q·(count−1)) order statistic, clamped
// to the exact [Min, Max] envelope. Results are within alpha relative
// error of that order statistic, nondecreasing in q, and deterministic
// (bucket keys are walked in ascending order). Returns 0 on an empty sketch.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	idx := int64(q * float64(s.count-1))
	rank := int64(0)
	// Ascending value order: most-negative first (descending |x| keys),
	// then zeros, then positives (ascending keys). Empty cells leave the
	// rank unchanged, so walking them is the same as skipping them.
	for i := len(s.neg.counts) - 1; i >= 0; i-- {
		if rank += s.neg.counts[i]; rank > idx {
			return s.clamp(-s.bucketValue(s.neg.offset + i))
		}
	}
	rank += s.zero
	if rank > idx {
		return s.clamp(0)
	}
	for i, c := range s.pos.counts {
		if rank += c; rank > idx {
			return s.clamp(s.bucketValue(s.pos.offset + i))
		}
	}
	return s.max
}

// CountLE estimates how many observations are ≤ x, for x ≥ 0 — the CDF
// counts a cumulative histogram export needs (Prometheus le-buckets). A
// positive bucket k holds values in (gamma^(k-1), gamma^k], so every
// bucket with k ≤ key(x) counts fully; the boundary bucket can misplace
// values within alpha relative error of x, the same bound Quantile
// carries. Negative x is rejected as 0 matches (latency phases are never
// negative; the negative-bucket side exists for generic merges).
// Monotone nondecreasing in x and deterministic.
func (s *Sketch) CountLE(x float64) int64 {
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	n := s.zero
	for _, c := range s.neg.counts {
		n += c
	}
	if x == 0 {
		return n
	}
	if math.IsInf(x, 1) || x >= s.max {
		return s.count
	}
	// Cells up to key(x), clipped to the store.
	last := min(s.key(x)-s.pos.offset, len(s.pos.counts)-1)
	for _, c := range s.pos.counts[:max(last+1, 0)] {
		n += c
	}
	return n
}

// clamp bounds a bucket midpoint by the exact observed envelope: an
// estimate outside [min, max] can only move closer to the true order
// statistic by clamping, so the error bound survives and Quantile(0)/
// Quantile(1) are exact.
func (s *Sketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// denseStore counts observations per bucket key in one contiguous array:
// counts[i] is the count of key offset+i. It grows at either end to cover
// a new key and keeps its array across reset.
type denseStore struct {
	counts   []int64
	offset   int // key of counts[0]
	occupied int // cells with a nonzero count
}

// add counts c more observations (c > 0) in key k's cell.
func (d *denseStore) add(k int, c int64) {
	i := k - d.offset
	if i < 0 || i >= len(d.counts) {
		d.grow(k)
		i = k - d.offset
	}
	if d.counts[i] == 0 {
		d.occupied++
	}
	d.counts[i] += c
}

// merge adds o's counts cell by cell.
func (d *denseStore) merge(o *denseStore) {
	for i, c := range o.counts {
		if c != 0 {
			d.add(o.offset+i, c)
		}
	}
}

// grow extends the array to cover key k, which lies outside it. The grown
// side gets slack of half the new span (at least storeSlack cells), so a
// store that keeps growing copies O(log span) times.
func (d *denseStore) grow(k int) {
	if len(d.counts) == 0 {
		d.counts, d.offset = make([]int64, 2*storeSlack+1), k-storeSlack
		return
	}
	lo, hi := d.offset, d.offset+len(d.counts)-1
	slack := max((max(hi, k)-min(lo, k)+1)/2, storeSlack)
	newLo, newHi := lo, hi
	if k < lo {
		newLo = k - slack
	} else {
		newHi = k + slack
	}
	grown := make([]int64, newHi-newLo+1)
	copy(grown[lo-newLo:], d.counts)
	d.counts, d.offset = grown, newLo
}

// storeSlack is the least growth of a store side, in cells.
const storeSlack = 32

// reset zeroes every cell, keeping the array and its key range.
func (d *denseStore) reset() {
	clear(d.counts)
	d.occupied = 0
}
