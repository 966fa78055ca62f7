package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzSketchQuantiles feeds arbitrary byte streams (decoded as float64s)
// into a sketch and checks the structural invariants that must hold for
// ANY input: non-finite values are rejected without mutating state, the
// quantile function is nondecreasing in q and bounded by [Min, Max], the
// count ledger matches accepted adds, and nothing panics. Run with
// `go test -fuzz=FuzzSketchQuantiles ./internal/stats` to explore; the
// seed corpus below is exercised by every plain `go test` run.
func FuzzSketchQuantiles(f *testing.F) {
	seed := func(vals ...float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1, 2, 3, 4, 5))
	f.Add(seed(0, 0, 0))
	f.Add(seed(-1, 1, -2, 2, 0))
	f.Add(seed(math.NaN(), 1, math.Inf(1), 2, math.Inf(-1)))
	f.Add(seed(1e-300, 1e300, 5e-324, math.MaxFloat64))
	f.Add(seed(0.001, 0.01, 0.1, 1, 10, 100))
	f.Add([]byte{1, 2, 3}) // trailing partial word is ignored

	f.Fuzz(func(t *testing.T, data []byte) {
		sk, err := NewSketch(DefaultSketchAlpha)
		if err != nil {
			t.Fatal(err)
		}
		accepted := int64(0)
		min, max := math.Inf(1), math.Inf(-1)
		for len(data) >= 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
			data = data[8:]
			before := sk.Count()
			err := sk.Add(x)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				if err == nil {
					t.Fatalf("non-finite %g accepted", x)
				}
				if sk.Count() != before {
					t.Fatalf("rejected %g changed count %d -> %d", x, before, sk.Count())
				}
				continue
			}
			if err != nil {
				t.Fatalf("finite %g rejected: %v", x, err)
			}
			accepted++
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		if sk.Count() != accepted {
			t.Fatalf("count %d, accepted %d", sk.Count(), accepted)
		}
		if accepted == 0 {
			if sk.Quantile(0.5) != 0 {
				t.Fatalf("empty sketch quantile %g", sk.Quantile(0.5))
			}
			return
		}
		if sk.Min() != min || sk.Max() != max {
			t.Fatalf("min/max %g/%g, want %g/%g", sk.Min(), sk.Max(), min, max)
		}
		prev := math.Inf(-1)
		for _, q := range []float64{-1, 0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 2} {
			v := sk.Quantile(q)
			if math.IsNaN(v) {
				t.Fatalf("Quantile(%g) is NaN", q)
			}
			if v < min || v > max {
				t.Fatalf("Quantile(%g)=%g outside [%g, %g]", q, v, min, max)
			}
			if v < prev {
				t.Fatalf("Quantile(%g)=%g below Quantile(prev)=%g", q, v, prev)
			}
			prev = v
		}
	})
}

// FuzzSketchDenseOracle drives two sketches and their map-store
// references (mapSketch) through the same operations, decoded from the
// input nine bytes at a time: an op byte and a float64. Ops add the value
// as given (any sign, zero, non-finite, subnormal or huge), its negation,
// an exact zero, a value near 1 ms, or a value scaled far away to the
// second sketch; merge the second sketch into the first (often a disjoint
// key range) and reset it; or reset the first, reusing its stores. After
// every merge and reset, and at the end, Quantile at fixed q, CountLE,
// Buckets, Count, Min and Max must equal the reference's bit for bit.
// Run with `go test -fuzz=FuzzSketchDenseOracle ./internal/stats`.
func FuzzSketchDenseOracle(f *testing.F) {
	op := func(code byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{code}, math.Float64bits(v))
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	f.Add(cat(op(0, 0.02), op(0, 0.5), op(1, 3), op(2, 0), op(4, 7), op(5, 0)))
	f.Add(cat(op(4, 1e-300), op(4, 1e300), op(6, 0), op(0, 5e-324), op(0, math.MaxFloat64), op(7, 0), op(0, 0.003)))
	f.Add(cat(op(3, 0.001), op(3, 0.1), op(1, 2), op(7, 0), op(0, 1), op(0, -1), op(6, 0), op(4, -1e-200)))
	f.Add(cat(op(0, math.NaN()), op(0, math.Inf(1)), op(1, math.Inf(-1)), op(2, 0), op(7, 0)))
	f.Add(cat(op(0, 1), op(7, 0), op(0, 1e10), op(0, -1e-10), op(7, 0), op(3, 50)))

	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sk [2]*Sketch
		var ref [2]*mapSketch
		for i := range sk {
			s, err := NewSketch(DefaultSketchAlpha)
			if err != nil {
				t.Fatal(err)
			}
			sk[i], ref[i] = s, newMapSketch(s)
		}
		add := func(i int, x float64) {
			_ = sk[i].Add(x)
			ref[i].add(x)
		}
		check := func(when string) {
			s, r := sk[0], ref[0]
			if s.Count() != r.count || s.Buckets() != r.buckets() {
				t.Fatalf("%s: count %d buckets %d, reference %d and %d", when, s.Count(), s.Buckets(), r.count, r.buckets())
			}
			if r.count > 0 && (s.Min() != r.min || s.Max() != r.max) {
				t.Fatalf("%s: min/max %g/%g, reference %g/%g", when, s.Min(), s.Max(), r.min, r.max)
			}
			for _, q := range qs {
				if got, want := s.Quantile(q), r.quantile(q); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Quantile(%g) = %g, reference %g", when, q, got, want)
				}
			}
			for _, x := range []float64{-1, 0, 1e-3, 0.02, 1, 1e3, r.min, r.max, -r.min, math.Inf(1)} {
				if got, want := s.CountLE(x), r.countLE(x); got != want {
					t.Fatalf("%s: CountLE(%g) = %d, reference %d", when, x, got, want)
				}
			}
		}
		for ; len(data) >= 9; data = data[9:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			switch data[0] % 8 {
			case 0:
				add(0, v)
			case 1:
				add(0, -v)
			case 2:
				add(0, 0)
			case 3: // a dense cluster near 1 ms
				add(0, 1e-3*(1+float64(data[1])/64))
			case 4: // the second sketch, far from the first's keys
				add(1, v*1e150)
			case 5:
				add(1, -v)
			case 6:
				if err := sk[0].Merge(sk[1]); err != nil {
					t.Fatal(err)
				}
				ref[0].merge(ref[1])
				check("merge")
				sk[1].Reset()
				ref[1].reset()
			case 7:
				sk[0].Reset()
				ref[0].reset()
				check("reset")
			}
		}
		check("end")
	})
}
