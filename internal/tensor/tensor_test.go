package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

func almostEqual(a, b, tol float32) bool {
	return math.Abs(float64(a-b)) <= float64(tol)
}

// transpose returns Bᵀ for a 2-D tensor B.
func transpose(b *Tensor) *Tensor {
	bt := New(b.Shape[1], b.Shape[0])
	for i := 0; i < b.Shape[0]; i++ {
		for j := 0; j < b.Shape[1]; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	return bt
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {64, 64, 64}, {65, 130, 33}, {128, 17, 96}} {
		a := randTensor(rng, dims[0], dims[1])
		b := randTensor(rng, dims[1], dims[2])
		got, err := MatMulTransposed(a, transpose(b))
		if err != nil {
			t.Fatal(err)
		}
		want := naiveMatMul(a, b)
		for i := range got.Data {
			if !almostEqual(got.Data[i], want.Data[i], 1e-4) {
				t.Fatalf("dims %v: C[%d] = %g, want %g", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulTransposedMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randTensor(rng, 13, 21)
	b := randTensor(rng, 21, 34) // B as k×n
	want := naiveMatMul(a, b)
	got, err := MatMulTransposed(a, transpose(b))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-4) {
			t.Fatalf("C[%d] = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a, b := New(2, 3), New(4, 5)
	if _, err := MatMulTransposed(a, b); err == nil {
		t.Error("MatMulTransposed with mismatched inner dims succeeded")
	}
	if _, err := MatMulTransposed(New(2), New(2, 2)); err == nil {
		t.Error("MatMulTransposed with 1-D operand succeeded")
	}
}

func TestFromSlice(t *testing.T) {
	if _, err := FromSlice([]float32{1, 2, 3}, 2, 2); err == nil {
		t.Error("FromSlice with wrong length succeeded")
	}
	tt, err := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tt.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %g, want 3", tt.At(1, 0))
	}
}

func TestSoftmaxProperties(t *testing.T) {
	if err := quick.Check(func(vals []float32) bool {
		row := make([]float32, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				continue
			}
			// Keep values in a sane range; softmax saturates beyond.
			if v > 50 {
				v = 50
			} else if v < -50 {
				v = -50
			}
			row = append(row, v)
		}
		if len(row) == 0 {
			return true
		}
		out := append([]float32(nil), row...)
		SoftmaxInPlace(out)
		var sum float64
		for _, v := range out {
			if v < 0 || v > 1 {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{101, 102, 103, 104}
	SoftmaxInPlace(a)
	SoftmaxInPlace(b)
	for i := range a {
		if !almostEqual(a[i], b[i], 1e-6) {
			t.Errorf("shift invariance violated at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := New(2, 3)
	copy(m.Data, []float32{0, 0, 0, 1, 2, 3})
	SoftmaxInPlace(m.Row(0))
	SoftmaxInPlace(m.Row(1))
	for j := 0; j < 3; j++ {
		if !almostEqual(m.At(0, j), 1.0/3, 1e-6) {
			t.Errorf("uniform row softmax[%d] = %g", j, m.At(0, j))
		}
	}
	if m.At(1, 2) <= m.At(1, 1) || m.At(1, 1) <= m.At(1, 0) {
		t.Error("softmax not monotone in logits")
	}
}

func TestRMSNorm(t *testing.T) {
	x := New(1, 4)
	copy(x.Data, []float32{2, 2, 2, 2})
	gain := []float32{1, 1, 1, 1}
	if err := RMSNorm(x, gain, 0); err != nil {
		t.Fatal(err)
	}
	// rms of (2,2,2,2) is 2, so output should be all ones.
	for i, v := range x.Data {
		if !almostEqual(v, 1, 1e-5) {
			t.Errorf("RMSNorm[%d] = %g, want 1", i, v)
		}
	}
	if err := RMSNorm(x, []float32{1}, 0); err == nil {
		t.Error("RMSNorm with wrong gain length succeeded")
	}
}

func TestRMSNormUnitRMS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randTensor(rng, 4, 32)
	gain := make([]float32, 32)
	for i := range gain {
		gain[i] = 1
	}
	if err := RMSNorm(x, gain, 0); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		var ss float64
		for _, v := range x.Row(r) {
			ss += float64(v) * float64(v)
		}
		rms := math.Sqrt(ss / 32)
		if math.Abs(rms-1) > 1e-4 {
			t.Errorf("row %d rms = %g, want 1", r, rms)
		}
	}
}

func TestSiLU(t *testing.T) {
	x := New(1, 3)
	copy(x.Data, []float32{0, 10, -10})
	SiLU(x)
	if x.Data[0] != 0 {
		t.Errorf("SiLU(0) = %g", x.Data[0])
	}
	if !almostEqual(x.Data[1], 10, 1e-3) {
		t.Errorf("SiLU(10) = %g, want ~10", x.Data[1])
	}
	if !almostEqual(x.Data[2], 0, 1e-3) {
		t.Errorf("SiLU(-10) = %g, want ~0", x.Data[2])
	}
}

func TestRoPEPreservesNorm(t *testing.T) {
	// Rotations preserve the norm of each pair.
	rng := rand.New(rand.NewSource(4))
	x := randTensor(rng, 3, 8)
	orig := x.Clone()
	if err := RoPE(x, []int{0, 5, 100}, 10000); err != nil {
		t.Fatal(err)
	}
	for tok := 0; tok < 3; tok++ {
		for i := 0; i < 4; i++ {
			a0, b0 := orig.At(tok, 2*i), orig.At(tok, 2*i+1)
			a1, b1 := x.At(tok, 2*i), x.At(tok, 2*i+1)
			n0 := math.Hypot(float64(a0), float64(b0))
			n1 := math.Hypot(float64(a1), float64(b1))
			if math.Abs(n0-n1) > 1e-4 {
				t.Errorf("tok %d pair %d: norm %g -> %g", tok, i, n0, n1)
			}
		}
	}
}

func TestRoPEPositionZeroIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randTensor(rng, 1, 16)
	orig := x.Clone()
	if err := RoPE(x, []int{0}, 10000); err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		if !almostEqual(x.Data[i], orig.Data[i], 1e-6) {
			t.Errorf("RoPE at position 0 changed element %d", i)
		}
	}
}

func TestRoPEErrors(t *testing.T) {
	if err := RoPE(New(2, 3), []int{0, 1}, 10000); err == nil {
		t.Error("RoPE with odd dim succeeded")
	}
	if err := RoPE(New(2, 4), []int{0}, 10000); err == nil {
		t.Error("RoPE with wrong positions length succeeded")
	}
	if err := RoPE(New(2), []int{0, 1}, 10000); err == nil {
		t.Error("RoPE with 1-D input succeeded")
	}
}

func TestArgMaxTopK(t *testing.T) {
	v := []float32{3, 9, 1, 9, 5}
	if got := ArgMax(v); got != 1 {
		t.Errorf("ArgMax = %d, want 1 (first tie)", got)
	}
	top := TopK(v, 3)
	want := []int{1, 3, 4}
	for i := range want {
		if top[i] != want[i] {
			t.Errorf("TopK[%d] = %d, want %d", i, top[i], want[i])
		}
	}
	if got := TopK(v, 99); len(got) != len(v) {
		t.Errorf("TopK with k>len returned %d items", len(got))
	}
}

func TestAddMulScale(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	copy(a.Data, []float32{1, 2, 3, 4})
	copy(b.Data, []float32{10, 20, 30, 40})
	if _, err := Add(a, b); err != nil {
		t.Fatal(err)
	}
	if a.Data[3] != 44 {
		t.Errorf("Add: a[3] = %g", a.Data[3])
	}
	if _, err := Mul(a, b); err != nil {
		t.Fatal(err)
	}
	if a.Data[0] != 110 {
		t.Errorf("Mul: a[0] = %g", a.Data[0])
	}
	if _, err := Add(a, New(1)); err == nil {
		t.Error("Add with size mismatch succeeded")
	}
	if _, err := Mul(a, New(1)); err == nil {
		t.Error("Mul with size mismatch succeeded")
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := CosineSimilarity(a, a); !almostEqual(got, 1, 1e-6) {
		t.Errorf("cos(a,a) = %g", got)
	}
	if got := CosineSimilarity(a, b); !almostEqual(got, 0, 1e-6) {
		t.Errorf("cos(a,b) = %g", got)
	}
	if got := CosineSimilarity(a, []float32{0, 0}); got != 0 {
		t.Errorf("cos with zero vector = %g", got)
	}
	if got := Dot(a, []float32{3, 7}); got != 3 {
		t.Errorf("Dot = %g", got)
	}
}

func BenchmarkMatMulTransposed128(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := randTensor(rng, 128, 128)
	y := randTensor(rng, 128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MatMulTransposed(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
