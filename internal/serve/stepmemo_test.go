package serve

import (
	"math"
	"math/rand"
	"testing"

	"cllm/internal/sim"
	"cllm/internal/tee"
)

// TestStepMemoMatchesCoster: the scheduler's front cache returns the
// coster's float64 for every shape, bit for bit, whether the slot hits,
// misses, or was taken over by a colliding shape, and never caches an
// error.
func TestStepMemoMatchesCoster(t *testing.T) {
	be, cfg := cpuBackend(tee.TDX()), tinyConfig(1, 1)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	s, err := newScheduler(be, &cfg, sim.NewEngine(), newNoise(be, 1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	hits := 0
	for i := 0; i < 20000; i++ {
		// Few enough shapes that most repeat, more than the cache holds.
		batch, a, b := 1+rng.Intn(8), 1+rng.Intn(120), rng.Intn(3)*16
		got, err := s.decodeTime(batch, a, b)
		want, werr := s.coster.DecodeTime(batch, a, b)
		if err != nil || werr != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("decode (%d, %d, %d): memo %v (%v), coster %v (%v)", batch, a, b, got, err, want, werr)
		}
		got, err = s.chunkTime(batch, a, b)
		want, werr = s.coster.ChunkTime(batch, a, b)
		if err != nil || werr != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("chunk (%d, %d, %d): memo %v (%v), coster %v (%v)", batch, a, b, got, err, want, werr)
		}
		if _, _, ok := s.decodeMemo.lookup(batch, a, b); ok {
			hits++
		}
	}
	if hits != 20000 {
		t.Fatalf("a shape just costed missed the cache %d times", 20000-hits)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.decodeTime(0, 10, 0); err == nil {
			t.Fatal("a zero-row decode step was costed")
		}
		if _, err := s.chunkTime(0, 10, 0); err == nil {
			t.Fatal("a zero-row chunk step was costed")
		}
	}
}
