package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g, want 5", m)
	}
	if sd := StdDev(xs); sd != 2 {
		t.Errorf("StdDev = %g, want 2", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-slice moments not zero")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {-5, 1}, {105, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Errorf("interpolated median = %g, want 1.5", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
}

func TestPercentileSortedInvariant(t *testing.T) {
	if err := quick.Check(func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		p10 := Percentile(clean, 10)
		p90 := Percentile(clean, 90)
		return p10 <= p90
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFilterZScore(t *testing.T) {
	xs := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10, 10, 1000}
	kept, removed := FilterZScore(xs, 3)
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if len(kept) != len(xs)-1 {
		t.Fatalf("kept %d", len(kept))
	}
	for _, k := range kept {
		if k == 1000 {
			t.Fatal("outlier survived")
		}
	}
	// Small or constant slices pass through untouched.
	if kept, removed := FilterZScore([]float64{5, 5}, 3); removed != 0 || len(kept) != 2 {
		t.Error("small slice filtered")
	}
	if _, removed := FilterZScore([]float64{3, 3, 3, 3}, 3); removed != 0 {
		t.Error("constant slice filtered")
	}
}

func TestOverheadConventions(t *testing.T) {
	// Latency: higher is worse, positive overhead.
	if got := OverheadPct(100, 110); got != 10 {
		t.Errorf("OverheadPct = %g, want 10", got)
	}
	// Throughput: lower is worse, positive overhead.
	if got := ThroughputOverheadPct(100, 90); got != 10 {
		t.Errorf("ThroughputOverheadPct = %g, want 10", got)
	}
	if OverheadPct(0, 5) != 0 || ThroughputOverheadPct(0, 5) != 0 {
		t.Error("zero-base overheads not guarded")
	}
}

func TestFilterZScoreProperty(t *testing.T) {
	// Filtering never increases the spread.
	if err := quick.Check(func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		kept, removed := FilterZScore(clean, 3)
		if removed == 0 {
			return true
		}
		return StdDev(kept) <= StdDev(clean)
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestPercentilesMatchesPercentile: the sort-once helper returns exactly
// Percentile's value at every p — fixed report percentiles, the clamped
// ends, and random fractional ranks — over random samples with ties, and
// leaves its input unsorted.
func TestPercentilesMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if got := Percentiles(nil, 50); got != nil {
		t.Fatalf("Percentiles of no samples = %v, want nil", got)
	}
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(300))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			if rng.Intn(5) == 0 && i > 0 {
				xs[i] = xs[rng.Intn(i)] // ties
			}
		}
		orig := append([]float64(nil), xs...)
		ps := []float64{-5, 0, 1, 25, 50, 95, 99, 99.9, 100, 150, rng.Float64() * 100, rng.Float64() * 100}
		got := Percentiles(xs, ps...)
		for i, p := range ps {
			if want := Percentile(xs, p); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d: Percentiles at p=%g = %v, Percentile %v", trial, p, got[i], want)
			}
		}
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatalf("trial %d: Percentiles reordered its input", trial)
			}
		}
	}
}
