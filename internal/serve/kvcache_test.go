package serve

import (
	"math/rand"
	"testing"
)

// holders returns how many requests hold private blocks or pin shared ones.
func holders(m *BlockManager) int {
	ids := make(map[int]struct{}, len(m.held)+len(m.pinned))
	for id := range m.held {
		ids[id] = struct{}{}
	}
	for id := range m.pinned {
		ids[id] = struct{}{}
	}
	return len(ids)
}

// dedupOracle is DedupSavedTokens by definition: pins minus distinct pinned
// blocks across the rows, counted with a set of block keys.
func dedupOracle(m *BlockManager, ids []int) int {
	if !m.sharing {
		return 0
	}
	seen := make(map[blockKey]struct{})
	pins, uniq := 0, 0
	for _, id := range ids {
		for _, b := range m.pinned[id] {
			pins++
			if _, ok := seen[b.key]; !ok {
				seen[b.key] = struct{}{}
				uniq++
			}
		}
	}
	return (pins - uniq) * m.blockTokens
}

func TestBlockManagerAccounting(t *testing.T) {
	// 10 blocks of 16 tokens × 4 bytes/token = 64 bytes/block.
	m, err := NewBlockManager(640, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalBlocks() != 10 || m.FreeBlocks() != 10 {
		t.Fatalf("pool %d/%d, want 10/10", m.FreeBlocks(), m.TotalBlocks())
	}
	if got := m.BlocksFor(1); got != 1 {
		t.Errorf("BlocksFor(1) = %d", got)
	}
	if got := m.BlocksFor(16); got != 1 {
		t.Errorf("BlocksFor(16) = %d", got)
	}
	if got := m.BlocksFor(17); got != 2 {
		t.Errorf("BlocksFor(17) = %d", got)
	}
	if got := m.BlocksFor(0); got != 0 {
		t.Errorf("BlocksFor(0) = %d", got)
	}

	if !m.Grow(1, 40) { // 3 blocks
		t.Fatal("Grow(1, 40) failed with an empty pool")
	}
	if m.InUse() != 3 || m.FreeBlocks() != 7 {
		t.Fatalf("after grow: in-use %d free %d", m.InUse(), m.FreeBlocks())
	}
	if !m.Grow(1, 49) { // 4th block needed past 48 tokens
		t.Fatal("incremental grow failed")
	}
	if m.InUse() != 4 {
		t.Fatalf("in-use %d after incremental grow, want 4", m.InUse())
	}
	if !m.Grow(1, 30) { // shrink request is a no-op, not a free
		t.Fatal("no-op grow failed")
	}
	if m.InUse() != 4 {
		t.Fatalf("no-op grow changed allocation to %d", m.InUse())
	}

	// All-or-nothing: 7 free, ask for 8 more.
	if m.Grow(2, 8*16) {
		t.Fatal("oversized grow succeeded")
	}
	if m.InUse() != 4 || holders(m) != 1 {
		t.Fatalf("failed grow changed state: in-use %d holders %d", m.InUse(), holders(m))
	}

	if n := m.Release(1); n != 4 {
		t.Fatalf("released %d blocks, want 4", n)
	}
	if m.InUse() != 0 || m.FreeBlocks() != 10 {
		t.Fatalf("after release: in-use %d free %d", m.InUse(), m.FreeBlocks())
	}
	if m.PeakInUse() != 4 {
		t.Fatalf("peak %d, want 4", m.PeakInUse())
	}
}

func TestPrefixSharingLifecycle(t *testing.T) {
	// 32 blocks of 16 tokens × 4 bytes/token.
	m, err := NewBlockManager(32*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	h := prefixHash(7)

	// First acquirer publishes 4 blocks (64 prefix tokens), nothing cached.
	cached, err := m.AcquirePrefix(1, h, 64)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 0 {
		t.Fatalf("first acquire cached %d tokens, want 0", cached)
	}
	if m.SharedTokens(1) != 64 || m.InUse() != 4 {
		t.Fatalf("pins %d tokens, in-use %d", m.SharedTokens(1), m.InUse())
	}
	// A concurrent sharer pins the same blocks but gets no hits — they are
	// not computed yet.
	if cached, _ = m.AcquirePrefix(2, h, 64); cached != 0 {
		t.Fatalf("uncomputed blocks served %d cached tokens", cached)
	}
	if m.InUse() != 4 {
		t.Fatalf("sharer allocated new blocks: in-use %d, want 4", m.InUse())
	}
	m.MarkComputed(1, 64)
	// A later sharer now hits the whole prefix.
	if cached, _ = m.AcquirePrefix(3, h, 64); cached != 64 {
		t.Fatalf("computed prefix served %d cached tokens, want 64", cached)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}

	// Private growth counts pinned blocks first: 64 shared + 36 private
	// tokens need 4 + 3 blocks.
	if !m.Grow(1, 100) {
		t.Fatal("grow failed with a near-empty pool")
	}
	if m.InUse() != 7 {
		t.Fatalf("in-use %d after grow, want 7 (4 shared + 3 private)", m.InUse())
	}

	// Releases decrement refcounts; blocks cache only when nobody pins.
	m.Release(1)
	m.Release(2)
	if m.CachedBlocks() != 0 {
		t.Fatalf("blocks cached while request 3 still pins them")
	}
	m.Release(3)
	if m.CachedBlocks() != 4 || m.InUse() != 0 {
		t.Fatalf("cached %d in-use %d after all releases, want 4/0", m.CachedBlocks(), m.InUse())
	}
	// A new arrival hits straight from the cache and revives the blocks.
	if cached, _ = m.AcquirePrefix(9, h, 64); cached != 64 {
		t.Fatalf("cache revival served %d tokens, want 64", cached)
	}
	if m.CachedBlocks() != 0 || m.InUse() != 4 {
		t.Fatalf("revival state: cached %d in-use %d", m.CachedBlocks(), m.InUse())
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixNoSharingAcrossDifferentPrefixes(t *testing.T) {
	m, err := NewBlockManager(64*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AcquirePrefix(1, prefixHash(1), 64); err != nil {
		t.Fatal(err)
	}
	m.MarkComputed(1, 64)
	// Same length, different prefix identity: the chained hashes differ at
	// every block index, so nothing may be served from request 1's blocks.
	cached, err := m.AcquirePrefix(2, prefixHash(2), 64)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 0 {
		t.Fatalf("different prefix hit %d cached tokens", cached)
	}
	if m.InUse() != 8 {
		t.Fatalf("in-use %d, want 8 distinct blocks", m.InUse())
	}
	// Same identity, shorter declared prefix: shares the leading blocks only.
	cached, err = m.AcquirePrefix(3, prefixHash(1), 32)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 32 {
		t.Fatalf("leading-block share served %d tokens, want 32", cached)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixCacheEvictionLeafFirst(t *testing.T) {
	// 8-block pool; publish a 6-block prefix, release it (cached), then
	// demand private blocks that force eviction.
	m, err := NewBlockManager(8*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AcquirePrefix(1, prefixHash(5), 96); err != nil {
		t.Fatal(err)
	}
	m.MarkComputed(1, 96)
	m.Release(1)
	if m.CachedBlocks() != 6 || m.FreeBlocks() != 2 {
		t.Fatalf("cached %d free %d, want 6/2", m.CachedBlocks(), m.FreeBlocks())
	}
	// 4 private blocks needed → 2 free + 2 evicted (the deepest two).
	if !m.Grow(2, 64) {
		t.Fatal("grow with evictable cache failed")
	}
	if m.EvictedBlocks() != 2 {
		t.Fatalf("evicted %d blocks, want 2", m.EvictedBlocks())
	}
	// The surviving cache must be the prefix's leading blocks: a sharer of
	// the first 4 blocks still hits them all.
	cached, err := m.AcquirePrefix(3, prefixHash(5), 64)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 64 {
		t.Fatalf("leaf-first eviction broke the chain: %d cached tokens, want 64", cached)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// Oversized demand with nothing evictable left fails all-or-nothing.
	if m.Grow(4, 16*16) {
		t.Fatal("impossible grow succeeded")
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRefcountConservationRandomized(t *testing.T) {
	m, err := NewBlockManager(48*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	type live struct{ id, prefixLen int }
	var actives []live
	nextID := 0
	for i := 0; i < 4000; i++ {
		switch op := rng.Intn(5); {
		case op == 0 || len(actives) == 0: // new request acquires a prefix
			id := nextID
			nextID++
			group := rng.Intn(4) + 1
			pl := (rng.Intn(6) + 1) * 16
			if _, err := m.AcquirePrefix(id, prefixHash(group), pl); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			actives = append(actives, live{id: id, prefixLen: pl})
		case op == 1: // grow
			r := actives[rng.Intn(len(actives))]
			m.Grow(r.id, r.prefixLen+rng.Intn(128))
		case op == 2: // prefill progress
			r := actives[rng.Intn(len(actives))]
			m.MarkComputed(r.id, rng.Intn(r.prefixLen+1))
		default: // release (preempt/finish)
			k := rng.Intn(len(actives))
			m.Release(actives[k].id)
			actives = append(actives[:k], actives[k+1:]...)
		}
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for _, r := range actives {
		m.Release(r.id)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if m.InUse() != 0 {
		t.Fatalf("blocks still active after releasing everything: %d", m.InUse())
	}
	if m.FreeBlocks()+m.CachedBlocks() != m.TotalBlocks() {
		t.Fatalf("free %d + cached %d != total %d", m.FreeBlocks(), m.CachedBlocks(), m.TotalBlocks())
	}
}

func TestSwapPoolAccounting(t *testing.T) {
	// 10 device blocks, 4 swap blocks; 16 tokens × 4 bytes per block.
	m, err := NewBlockManager(640, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	// SwapOut before the pool is configured must fail (recompute fallback).
	if !m.Grow(1, 40) {
		t.Fatal("grow failed")
	}
	if m.SwapOut(1, 40) {
		t.Fatal("swap-out succeeded with a zero-size pool")
	}
	m.ConfigureSwapPool(4)
	if m.SwapPoolBlocks() != 4 {
		t.Fatalf("pool %d, want 4", m.SwapPoolBlocks())
	}

	// Parking releases device holdings atomically, including shared pins.
	h := prefixHash(3)
	if _, err := m.AcquirePrefix(1, h, 32); err != nil {
		t.Fatal(err)
	}
	m.MarkComputed(1, 32)
	if !m.SwapOut(1, 40) { // 3 swap blocks
		t.Fatal("swap-out rejected with room in the pool")
	}
	if m.SwappedBlocks() != 3 || m.PeakSwapBlocks() != 3 {
		t.Fatalf("swap used/peak %d/%d, want 3/3", m.SwappedBlocks(), m.PeakSwapBlocks())
	}
	if m.InUse() != 0 || m.CachedBlocks() != 2 {
		t.Fatalf("device pool after swap-out: in-use %d cached %d, want 0/2", m.InUse(), m.CachedBlocks())
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// Double-park is rejected; pool exhaustion is all-or-nothing.
	if m.SwapOut(1, 16) {
		t.Fatal("double swap-out accepted")
	}
	if !m.Grow(2, 40) {
		t.Fatal("grow failed")
	}
	if m.SwapOut(2, 40) { // needs 3 more blocks, only 1 free in the pool
		t.Fatal("over-capacity swap-out accepted")
	}
	if m.held[2] != 3 {
		t.Fatalf("failed swap-out changed device holdings: %d", m.held[2])
	}
	// Restore frees the pool; a second restore is a no-op.
	if n := m.SwapIn(1); n != 3 {
		t.Fatalf("swap-in freed %d blocks, want 3", n)
	}
	if n := m.SwapIn(1); n != 0 {
		t.Fatalf("double swap-in freed %d blocks", n)
	}
	if m.SwappedBlocks() != 0 || m.PeakSwapBlocks() != 3 {
		t.Fatalf("swap used/peak %d/%d after restore", m.SwappedBlocks(), m.PeakSwapBlocks())
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRefcountConservationRandomizedWithSwap(t *testing.T) {
	// The recompute randomized walk, with swap-out/swap-in interleaved:
	// conservation must hold across park/restore/evict/share interleavings.
	m, err := NewBlockManager(48*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	m.ConfigureSwapPool(24)
	rng := rand.New(rand.NewSource(7))
	type live struct {
		id, prefixLen int
		swapped       bool
	}
	var actives []live
	nextID := 0
	for i := 0; i < 4000; i++ {
		switch op := rng.Intn(7); {
		case op == 0 || len(actives) == 0:
			id := nextID
			nextID++
			group := rng.Intn(4) + 1
			pl := (rng.Intn(6) + 1) * 16
			if _, err := m.AcquirePrefix(id, prefixHash(group), pl); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			actives = append(actives, live{id: id, prefixLen: pl})
		case op == 1:
			r := actives[rng.Intn(len(actives))]
			if !r.swapped {
				m.Grow(r.id, r.prefixLen+rng.Intn(128))
			}
		case op == 2:
			r := actives[rng.Intn(len(actives))]
			if !r.swapped {
				m.MarkComputed(r.id, rng.Intn(r.prefixLen+1))
			}
		case op == 3: // park
			k := rng.Intn(len(actives))
			if !actives[k].swapped && m.SwapOut(actives[k].id, rng.Intn(160)+1) {
				actives[k].swapped = true
			}
		case op == 4: // restore
			k := rng.Intn(len(actives))
			if actives[k].swapped {
				m.SwapIn(actives[k].id)
				actives[k].swapped = false
			}
		default: // release or drop
			k := rng.Intn(len(actives))
			if actives[k].swapped {
				m.SwapIn(actives[k].id)
			} else {
				m.Release(actives[k].id)
			}
			actives = append(actives[:k], actives[k+1:]...)
		}
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for _, r := range actives {
		if r.swapped {
			m.SwapIn(r.id)
		} else {
			m.Release(r.id)
		}
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if m.InUse() != 0 || m.SwappedBlocks() != 0 {
		t.Fatalf("blocks still active after releasing everything: %d device, %d swap",
			m.InUse(), m.SwappedBlocks())
	}
}

func TestBlockManagerRejectsHopelessBudget(t *testing.T) {
	if _, err := NewBlockManager(63, 16, 4, false); err == nil {
		t.Fatal("sub-block budget accepted")
	}
	if _, err := NewBlockManager(1<<20, 0, 4, true); err == nil {
		t.Fatal("zero block size accepted")
	}
}

func TestDedupSavedTokensMatchesOracle(t *testing.T) {
	// A 40-block pool against up to 9-block prefixes over five identities:
	// acquires run out of blocks midway, grows evict cached chains, and
	// crashes flush the cache. After every step DedupSavedTokens must equal
	// the set-based oracle on random row subsets, duplicates and pinless
	// IDs included.
	m, err := NewBlockManager(40*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	m.ConfigureSwapPool(16)
	rng := rand.New(rand.NewSource(20261017))
	type live struct {
		id, prefix, prefixLen int
		swapped               bool
	}
	var actives []live
	nextID := 0
	var cutShort, halfBuilt, flushed, swaps, nonzero int
	acquire := func(r live) {
		if _, err := m.AcquirePrefix(r.id, prefixHash(r.prefix), r.prefixLen); err != nil {
			t.Fatal(err)
		}
		if m.SharedTokens(r.id) < r.prefixLen/16*16 {
			cutShort++
		}
	}
	for step := 0; step < 6000; step++ {
		switch op := rng.Intn(10); {
		case op <= 1 || len(actives) == 0: // admit
			r := live{id: nextID, prefix: rng.Intn(5) + 1, prefixLen: rng.Intn(9*16 + 8)}
			nextID++
			acquire(r)
			m.Grow(r.id, r.prefixLen+rng.Intn(32))
			actives = append(actives, r)
		case op == 2: // decode growth, evicting cached blocks under pressure
			if r := actives[rng.Intn(len(actives))]; !r.swapped {
				m.Grow(r.id, r.prefixLen+rng.Intn(256))
			}
		case op == 3: // prefill progress
			if r := actives[rng.Intn(len(actives))]; !r.swapped {
				m.MarkComputed(r.id, rng.Intn(r.prefixLen+1))
			}
		case op == 4: // park
			k := rng.Intn(len(actives))
			if !actives[k].swapped && m.SwapOut(actives[k].id, actives[k].prefixLen+rng.Intn(32)+1) {
				actives[k].swapped = true
				swaps++
			}
		case op == 5: // restore: swap in, then re-pin the prefix
			k := rng.Intn(len(actives))
			if actives[k].swapped {
				m.SwapIn(actives[k].id)
				actives[k].swapped = false
				acquire(actives[k])
				m.Grow(actives[k].id, actives[k].prefixLen)
			}
		case op == 6 && rng.Intn(20) == 0: // rare crash; other op 6 draws release

			if m.FlushCache() > 0 {
				flushed++
			}
		default: // finish, preempt or drop
			k := rng.Intn(len(actives))
			r := actives[k]
			if r.swapped {
				m.SwapIn(r.id)
			} else {
				for _, b := range m.pinned[r.id] {
					if b.refs == 1 && !b.computed {
						halfBuilt++
						break
					}
				}
				m.Release(r.id)
			}
			actives = append(actives[:k], actives[k+1:]...)
		}
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for trial := 0; trial < 3; trial++ {
			ids := make([]int, rng.Intn(14))
			for i := range ids {
				switch {
				case len(actives) > 0 && rng.Intn(6) != 0:
					ids[i] = actives[rng.Intn(len(actives))].id
				case rng.Intn(2) == 0:
					ids[i] = nextID + rng.Intn(4) // never admitted
				default:
					ids[i] = rng.Intn(nextID + 1) // likely finished
				}
			}
			got, want := m.DedupSavedTokens(ids), dedupOracle(m, ids)
			if got != want {
				t.Fatalf("step %d: DedupSavedTokens(%v) = %d, oracle %d", step, ids, got, want)
			}
			if want > 0 {
				nonzero++
			}
		}
	}
	// The walk must have reached every path it claims to cover.
	for name, n := range map[string]int{
		"acquire cut short by pool exhaustion": cutShort,
		"release of a half-built block":        halfBuilt,
		"cache flush":                          flushed,
		"swap-out":                             swaps,
		"eviction":                             m.EvictedBlocks(),
		"nonzero dedup":                        nonzero,
	} {
		if n == 0 {
			t.Errorf("random walk never exercised %s", name)
		}
	}
}

// ragShapeManager builds the prefix-cache state of one rag-fleet replica's
// decode round: 16-token blocks, four computed 72-block prefixes and 12
// decode rows (three per prefix), each grown past its prefix.
func ragShapeManager(tb testing.TB) (*BlockManager, []int) {
	tb.Helper()
	m, err := NewBlockManager(4096*64, 16, 4, true)
	if err != nil {
		tb.Fatal(err)
	}
	const prefixTokens = 72 * 16
	ids := make([]int, 12)
	for i := range ids {
		ids[i] = i
		if _, err := m.AcquirePrefix(i, prefixHash(i%4+1), prefixTokens); err != nil {
			tb.Fatal(err)
		}
		m.MarkComputed(i, prefixTokens)
		if !m.Grow(i, prefixTokens+400) {
			tb.Fatal("grow failed")
		}
	}
	return m, ids
}

func TestDedupSavedTokensAllocationFree(t *testing.T) {
	m, ids := ragShapeManager(t)
	if got, want := m.DedupSavedTokens(ids), 8*72*16; got != want {
		t.Fatalf("DedupSavedTokens = %d, want %d (two repeat rows per prefix)", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.DedupSavedTokens(ids) }); allocs != 0 {
		t.Fatalf("DedupSavedTokens allocates %.1f times per call, want 0", allocs)
	}
}

// dedupSink keeps the benchmarked call from being optimised away.
var dedupSink int

func BenchmarkBlockManagerDedup(b *testing.B) {
	m, ids := ragShapeManager(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dedupSink = m.DedupSavedTokens(ids)
	}
}

// BenchmarkBlockManagerAcquirePrefix pins one more row onto a cached
// 72-block prefix and releases it again, so the pool is the same at every
// iteration.
func BenchmarkBlockManagerAcquirePrefix(b *testing.B) {
	m, _ := ragShapeManager(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.AcquirePrefix(100, prefixHash(i%4+1), 72*16); err != nil {
			b.Fatal(err)
		}
		m.Release(100)
	}
}
