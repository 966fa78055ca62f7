package serve

// stepMemo is a scheduler's unlocked front for its step coster's decode or
// chunk table: a small direct-mapped cache keyed by the step shape exactly
// as the scheduler passes it. The coster computes each shape's duration
// once and returns that same float64 for every later call, so a hit here
// is bit-identical to asking the coster; it saves the coster's
// read-lock round trip and map hash. A scheduler runs on one goroutine and
// owns its caches, so they need no lock even when the coster is shared.
type stepMemo [stepMemoSlots]stepMemoEntry

// stepMemoBits sizes the cache at 256 slots (8 KiB). Measured on the
// benchmark's serving workloads over their first 10⁴–2·10⁴ requests, 256
// slots serve 56% of single-replica decode and chunk lookups, 31% on a
// 4-replica RAG fleet and 23% on a disaggregated fleet; 64 slots serve
// 27%, 12% and 7%.
const (
	stepMemoBits  = 8
	stepMemoSlots = 1 << stepMemoBits
)

// stepMemoEntry is one cached shape. Callers never pass a batch below 1
// (the coster rejects it), so the zero entry matches nothing.
type stepMemoEntry struct {
	batch, a, b int
	t           float64
}

// lookup returns the shape's cached duration, or false with the slot a
// miss should fill.
func (m *stepMemo) lookup(batch, a, b int) (float64, *stepMemoEntry, bool) {
	h := uint64(batch)*0x9e3779b97f4a7c15 ^ uint64(a)*0xbf58476d1ce4e5b9 ^ uint64(b)*0x94d049bb133111eb
	e := &m[h>>(64-stepMemoBits)]
	if e.batch == batch && e.a == a && e.b == b {
		return e.t, nil, true
	}
	return 0, e, false
}

// decodeTime is the coster's DecodeTime behind the scheduler's front cache.
func (s *scheduler) decodeTime(batch, meanCtx, shared int) (float64, error) {
	t, slot, ok := s.decodeMemo.lookup(batch, meanCtx, shared)
	if ok {
		return t, nil
	}
	t, err := s.coster.DecodeTime(batch, meanCtx, shared)
	if err == nil {
		*slot = stepMemoEntry{batch: batch, a: meanCtx, b: shared, t: t}
	}
	return t, err
}

// chunkTime costs a batched prefill-chunk step — batch rows each computing
// chunk new prompt tokens over hist cached ones — through the coster's
// ChunkTime behind the scheduler's front cache.
func (s *scheduler) chunkTime(batch, chunk, hist int) (float64, error) {
	t, slot, ok := s.chunkMemo.lookup(batch, chunk, hist)
	if ok {
		return t, nil
	}
	t, err := s.coster.ChunkTime(batch, chunk, hist)
	if err == nil {
		*slot = stepMemoEntry{batch: batch, a: chunk, b: hist, t: t}
	}
	return t, err
}
