// Package stats provides the summary statistics used throughout the
// benchmark harness: mean/stddev/percentiles, the Z-score outlier filter the
// paper applies to per-token latency samples (§III-D, Z > 3), and the
// overhead conventions the paper reports.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Percentile returns the p-th percentile (0..100) using linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sortedPercentile(sorted, p)
}

// Percentiles returns Percentile(xs, p) for each p, bit for bit, sorting
// one copy of xs once instead of once per percentile. It returns nil for
// an empty xs.
func Percentiles(xs []float64, ps ...float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = sortedPercentile(sorted, p)
	}
	return out
}

// sortedPercentile is Percentile over an already sorted, non-empty slice.
func sortedPercentile(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// FilterZScore removes samples with |x-mean|/stddev > z, replicating the
// paper's outlier exclusion (Z-score > 3, ≈0.64% of samples under TEEs).
// It returns the kept samples and the number removed.
func FilterZScore(xs []float64, z float64) (kept []float64, removed int) {
	if len(xs) < 3 {
		return append([]float64(nil), xs...), 0
	}
	m, sd := Mean(xs), StdDev(xs)
	if sd == 0 {
		return append([]float64(nil), xs...), 0
	}
	kept = make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.Abs(x-m)/sd > z {
			removed++
			continue
		}
		kept = append(kept, x)
	}
	return kept, removed
}

// OverheadPct returns (x-base)/base in percent; the sign convention matches
// the paper (positive = slower / lower throughput than baseline).
func OverheadPct(base, x float64) float64 {
	if base == 0 {
		return 0
	}
	return (x - base) / base * 100
}

// ThroughputOverheadPct returns the throughput *reduction* in percent:
// positive when x is slower (fewer tokens/s) than base.
func ThroughputOverheadPct(base, x float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - x) / base * 100
}
