package serve

import (
	"math/rand"
	"testing"
)

// holders returns how many live holds have private blocks or pin shared
// ones.
func holders(m *BlockManager) int {
	n := 0
	for _, h := range m.holds {
		if h.private > 0 || len(h.pins) > 0 {
			n++
		}
	}
	return n
}

// dedupOracle is dedup by definition: pins minus distinct pinned blocks
// across the rows' holds (nil for a request the manager never saw),
// counted with a set of blocks. Every non-empty hold must be in the
// manager's live-hold registry.
func dedupOracle(tb testing.TB, m *BlockManager, rows []*kvHold) int {
	tb.Helper()
	if !m.sharing {
		return 0
	}
	seen := make(map[*sharedBlock]struct{})
	pins, uniq := 0, 0
	for _, h := range rows {
		if h == nil || len(h.pins) == 0 {
			continue
		}
		if h.owner != m || m.holds[h.slot] != h {
			tb.Fatalf("pinning hold %p is not in the live-hold registry", h)
		}
		for _, b := range h.pins {
			pins++
			if _, ok := seen[b]; !ok {
				seen[b] = struct{}{}
				uniq++
			}
		}
	}
	return (pins - uniq) * m.blockTokens
}

// dedupRows runs one dedup pass over the rows' holds, as the scheduler's
// decode pass does, and returns the repeat-read tokens.
func dedupRows(m *BlockManager, rows []*reqState) int {
	if !m.sharing {
		return 0
	}
	m.startDedup()
	saved := 0
	for _, r := range rows {
		saved += m.dedupRow(&r.kv)
	}
	return saved * m.blockTokens
}

// walkReq is one simulated request of a randomized walk. Odd IDs go
// through their own hold, even IDs through the exported request-ID
// methods (or, for operations with no exported form, through the hold the
// manager keeps for that ID), so both paths face the same interleavings.
type walkReq struct {
	id, prefix, prefixLen int
	swapped               bool
	st                    *reqState // nil: the request uses the ID-keyed methods
}

func newWalkReq(id int) walkReq {
	r := walkReq{id: id}
	if id%2 == 1 {
		r.st = &reqState{req: Request{ID: id}}
	}
	return r
}

// hold returns the request's hold, nil when an ID-keyed request holds
// nothing.
func (r walkReq) hold(m *BlockManager) *kvHold {
	if r.st != nil {
		return &r.st.kv
	}
	return m.byID[r.id]
}

func (r walkReq) acquire(m *BlockManager, prefixHash uint64, tokens int) (int, error) {
	if r.st != nil {
		return m.acquirePrefix(&r.st.kv, prefixHash, tokens)
	}
	return m.AcquirePrefix(r.id, prefixHash, tokens)
}

func (r walkReq) grow(m *BlockManager, tokens int) bool {
	if r.st != nil {
		return m.grow(&r.st.kv, tokens)
	}
	return m.Grow(r.id, tokens)
}

func (r walkReq) markComputed(m *BlockManager, tokens int) {
	if h := r.hold(m); h != nil {
		m.markComputed(h, tokens)
	}
}

func (r walkReq) release(m *BlockManager) int {
	if r.st != nil {
		return m.release(&r.st.kv)
	}
	return m.Release(r.id)
}

// swapOut and swapIn reach an ID-keyed request's hold the way the
// exported request-ID methods do: created on first use, forgotten once
// empty.
func (r walkReq) swapOut(m *BlockManager, tokens int) bool {
	if r.st != nil {
		return m.swapOut(&r.st.kv, tokens)
	}
	h := m.idHold(r.id)
	defer m.forget(r.id, h)
	return m.swapOut(h, tokens)
}

func (r walkReq) swapIn(m *BlockManager) int {
	if r.st != nil {
		return m.swapIn(&r.st.kv)
	}
	h := m.idHold(r.id)
	defer m.forget(r.id, h)
	return m.swapIn(h)
}

func (r walkReq) sharedTokens(m *BlockManager) int {
	if h := r.hold(m); h != nil {
		return m.sharedTokens(h)
	}
	return 0
}

// checkDrained asserts that a walk that released everything left no live
// hold behind, on either path.
func checkDrained(t *testing.T, m *BlockManager) {
	t.Helper()
	if len(m.holds) != 0 || len(m.byID) != 0 {
		t.Fatalf("%d live holds (%d by ID) after releasing everything", len(m.holds), len(m.byID))
	}
}

func TestBlockManagerAccounting(t *testing.T) {
	// 10 blocks of 16 tokens × 4 bytes/token = 64 bytes/block.
	m, err := NewBlockManager(640, 16, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalBlocks() != 10 || m.free != 10 {
		t.Fatalf("pool %d/%d, want 10/10", m.free, m.TotalBlocks())
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
	if m.InUse() != 3 || m.free != 7 {
		t.Fatalf("after grow: in-use %d free %d", m.InUse(), m.free)
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
	if m.InUse() != 0 || m.free != 10 {
		t.Fatalf("after release: in-use %d free %d", m.InUse(), m.free)
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
	if (walkReq{id: 1}).sharedTokens(m) != 64 || m.InUse() != 4 {
		t.Fatalf("pins %d tokens, in-use %d", walkReq{id: 1}.sharedTokens(m), m.InUse())
	}
	// A concurrent sharer pins the same blocks but gets no hits — they are
	// not computed yet.
	if cached, _ = m.AcquirePrefix(2, h, 64); cached != 0 {
		t.Fatalf("uncomputed blocks served %d cached tokens", cached)
	}
	if m.InUse() != 4 {
		t.Fatalf("sharer allocated new blocks: in-use %d, want 4", m.InUse())
	}
	walkReq{id: 1}.markComputed(m, 64)
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
	walkReq{id: 1}.markComputed(m, 64)
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
	walkReq{id: 1}.markComputed(m, 96)
	m.Release(1)
	if m.CachedBlocks() != 6 || m.free != 2 {
		t.Fatalf("cached %d free %d, want 6/2", m.CachedBlocks(), m.free)
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
	var actives []walkReq
	nextID := 0
	for i := 0; i < 4000; i++ {
		switch op := rng.Intn(5); {
		case op == 0 || len(actives) == 0: // new request acquires a prefix
			r := newWalkReq(nextID)
			nextID++
			group := rng.Intn(4) + 1
			r.prefixLen = (rng.Intn(6) + 1) * 16
			if _, err := r.acquire(m, prefixHash(group), r.prefixLen); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			actives = append(actives, r)
		case op == 1: // grow
			r := actives[rng.Intn(len(actives))]
			r.grow(m, r.prefixLen+rng.Intn(128))
		case op == 2: // prefill progress
			r := actives[rng.Intn(len(actives))]
			r.markComputed(m, rng.Intn(r.prefixLen+1))
		default: // release (preempt/finish)
			k := rng.Intn(len(actives))
			actives[k].release(m)
			actives = append(actives[:k], actives[k+1:]...)
		}
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for _, r := range actives {
		r.release(m)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if m.InUse() != 0 {
		t.Fatalf("blocks still active after releasing everything: %d", m.InUse())
	}
	if m.free+m.CachedBlocks() != m.TotalBlocks() {
		t.Fatalf("free %d + cached %d != total %d", m.free, m.CachedBlocks(), m.TotalBlocks())
	}
	checkDrained(t, m)
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
	if (walkReq{id: 1}).swapOut(m, 40) {
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
	walkReq{id: 1}.markComputed(m, 32)
	if !(walkReq{id: 1}).swapOut(m, 40) { // 3 swap blocks
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
	if (walkReq{id: 1}).swapOut(m, 16) {
		t.Fatal("double swap-out accepted")
	}
	if !m.Grow(2, 40) {
		t.Fatal("grow failed")
	}
	if (walkReq{id: 2}).swapOut(m, 40) { // needs 3 more blocks, only 1 free in the pool
		t.Fatal("over-capacity swap-out accepted")
	}
	if got := m.byID[2].private; got != 3 {
		t.Fatalf("failed swap-out changed device holdings: %d", got)
	}
	// Restore frees the pool; a second restore is a no-op.
	if n := (walkReq{id: 1}).swapIn(m); n != 3 {
		t.Fatalf("swap-in freed %d blocks, want 3", n)
	}
	if n := (walkReq{id: 1}).swapIn(m); n != 0 {
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
	var actives []walkReq
	nextID := 0
	for i := 0; i < 4000; i++ {
		switch op := rng.Intn(7); {
		case op == 0 || len(actives) == 0:
			r := newWalkReq(nextID)
			nextID++
			group := rng.Intn(4) + 1
			r.prefixLen = (rng.Intn(6) + 1) * 16
			if _, err := r.acquire(m, prefixHash(group), r.prefixLen); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			actives = append(actives, r)
		case op == 1:
			r := actives[rng.Intn(len(actives))]
			if !r.swapped {
				r.grow(m, r.prefixLen+rng.Intn(128))
			}
		case op == 2:
			r := actives[rng.Intn(len(actives))]
			if !r.swapped {
				r.markComputed(m, rng.Intn(r.prefixLen+1))
			}
		case op == 3: // park
			k := rng.Intn(len(actives))
			if !actives[k].swapped && actives[k].swapOut(m, rng.Intn(160)+1) {
				actives[k].swapped = true
			}
		case op == 4: // restore
			k := rng.Intn(len(actives))
			if actives[k].swapped {
				actives[k].swapIn(m)
				actives[k].swapped = false
			}
		default: // release or drop
			k := rng.Intn(len(actives))
			if actives[k].swapped {
				actives[k].swapIn(m)
			} else {
				actives[k].release(m)
			}
			actives = append(actives[:k], actives[k+1:]...)
		}
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for _, r := range actives {
		if r.swapped {
			r.swapIn(m)
		} else {
			r.release(m)
		}
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if m.InUse() != 0 || m.SwappedBlocks() != 0 {
		t.Fatalf("blocks still active after releasing everything: %d device, %d swap",
			m.InUse(), m.SwappedBlocks())
	}
	checkDrained(t, m)
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
	// crashes flush the cache. After every step both dedup paths must equal
	// the set-based oracle on random row subsets, duplicates and pinless
	// requests included: DedupSavedTokens over the subset's ID-keyed
	// requests, a dedup pass (dedupRows) over its hold-keyed ones.
	m, err := NewBlockManager(40*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	m.ConfigureSwapPool(16)
	rng := rand.New(rand.NewSource(20261017))
	var actives, all []walkReq
	nextID := 0
	var cutShort, halfBuilt, flushed, swaps, nonzero int
	acquire := func(r walkReq) {
		if _, err := r.acquire(m, prefixHash(r.prefix), r.prefixLen); err != nil {
			t.Fatal(err)
		}
		if r.sharedTokens(m) < r.prefixLen/16*16 {
			cutShort++
		}
	}
	for step := 0; step < 6000; step++ {
		switch op := rng.Intn(10); {
		case op <= 1 || len(actives) == 0: // admit
			r := newWalkReq(nextID)
			r.prefix, r.prefixLen = rng.Intn(5)+1, rng.Intn(9*16+8)
			nextID++
			acquire(r)
			r.grow(m, r.prefixLen+rng.Intn(32))
			actives = append(actives, r)
			all = append(all, r)
		case op == 2: // decode growth, evicting cached blocks under pressure
			if r := actives[rng.Intn(len(actives))]; !r.swapped {
				r.grow(m, r.prefixLen+rng.Intn(256))
			}
		case op == 3: // prefill progress
			if r := actives[rng.Intn(len(actives))]; !r.swapped {
				r.markComputed(m, rng.Intn(r.prefixLen+1))
			}
		case op == 4: // park
			k := rng.Intn(len(actives))
			if !actives[k].swapped && actives[k].swapOut(m, actives[k].prefixLen+rng.Intn(32)+1) {
				actives[k].swapped = true
				swaps++
			}
		case op == 5: // restore: swap in, then re-pin the prefix
			k := rng.Intn(len(actives))
			if actives[k].swapped {
				actives[k].swapIn(m)
				actives[k].swapped = false
				acquire(actives[k])
				actives[k].grow(m, actives[k].prefixLen)
			}
		case op == 6 && rng.Intn(20) == 0: // rare crash; other op 6 draws release

			if m.FlushCache() > 0 {
				flushed++
			}
		default: // finish, preempt or drop
			k := rng.Intn(len(actives))
			r := actives[k]
			if r.swapped {
				r.swapIn(m)
			} else {
				if h := r.hold(m); h != nil {
					for _, b := range h.pins {
						if b.refs == 1 && !b.computed {
							halfBuilt++
							break
						}
					}
				}
				r.release(m)
			}
			actives = append(actives[:k], actives[k+1:]...)
		}
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for trial := 0; trial < 3; trial++ {
			var ids []int
			var rows []*reqState
			var idHolds, rowHolds []*kvHold
			for n := rng.Intn(14); n > 0; n-- {
				var r walkReq
				switch {
				case len(actives) > 0 && rng.Intn(6) != 0:
					r = actives[rng.Intn(len(actives))]
				case rng.Intn(2) == 0:
					r = newWalkReq(nextID + rng.Intn(4)) // never admitted
				default:
					if k := rng.Intn(nextID + 1); k < len(all) {
						r = all[k] // likely finished
					} else {
						r = newWalkReq(k)
					}
				}
				if r.st == nil {
					ids = append(ids, r.id)
					idHolds = append(idHolds, r.hold(m))
				} else {
					rows = append(rows, r.st)
					rowHolds = append(rowHolds, r.hold(m))
				}
			}
			got, want := m.DedupSavedTokens(ids), dedupOracle(t, m, idHolds)
			if got != want {
				t.Fatalf("step %d: DedupSavedTokens(%v) = %d, oracle %d", step, ids, got, want)
			}
			gotRows, wantRows := dedupRows(m, rows), dedupOracle(t, m, rowHolds)
			if gotRows != wantRows {
				t.Fatalf("step %d: dedup pass over %d rows = %d, oracle %d", step, len(rows), gotRows, wantRows)
			}
			if want > 0 || wantRows > 0 {
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
		walkReq{id: i}.markComputed(m, prefixTokens)
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

// TestWarmAcquirePrefixAllocationFree: pinning a cached 72-block prefix
// and releasing it again is one map lookup and no allocation — the pins
// alias the chain's own block slice.
func TestWarmAcquirePrefixAllocationFree(t *testing.T) {
	m, _ := ragShapeManager(t)
	st := &reqState{}
	allocs := testing.AllocsPerRun(100, func() {
		cached, err := m.acquirePrefix(&st.kv, prefixHash(1), 72*16)
		if err != nil || cached != 72*16 {
			t.Fatalf("warm acquire served %d cached tokens (%v), want %d", cached, err, 72*16)
		}
		m.release(&st.kv)
	})
	if allocs != 0 {
		t.Fatalf("a warm acquirePrefix+release allocates %.1f times, want 0", allocs)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBlockManagerEvict publishes a 72-block prefix into a pool full
// of cached chains, evicting an older chain block by block, then computes
// and releases it so it joins the cache. 100 identities cycle through a
// 4096-block pool that holds 56 chains, so every acquisition misses and
// every published block costs one eviction.
func BenchmarkBlockManagerEvict(b *testing.B) {
	m, err := NewBlockManager(4096*64, 16, 4, true)
	if err != nil {
		b.Fatal(err)
	}
	st := &reqState{}
	cycle := func(i int) {
		if _, err := m.acquirePrefix(&st.kv, prefixHash(i%100+1), 72*16); err != nil {
			b.Fatal(err)
		}
		m.markComputed(&st.kv, 72*16)
		m.release(&st.kv)
	}
	for i := 0; i < 100; i++ { // fill the pool with cached chains
		cycle(i)
	}
	evicted := m.EvictedBlocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i)
	}
	b.StopTimer()
	if m.EvictedBlocks()-evicted != 72*b.N {
		b.Fatalf("evicted %d blocks over %d acquisitions, want 72 each", m.EvictedBlocks()-evicted, b.N)
	}
}

// TestForeignHoldRejected: a non-empty hold belongs to one manager. Every
// hold method of another manager must refuse it without touching either
// pool, and a registry that lists a foreign hold fails CheckConservation.
func TestForeignHoldRejected(t *testing.T) {
	a, err := NewBlockManager(32*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBlockManager(32*64, 16, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	b.ConfigureSwapPool(8)
	st := &reqState{}
	if _, err := a.acquirePrefix(&st.kv, prefixHash(1), 32); err != nil {
		t.Fatal(err)
	}
	if !a.grow(&st.kv, 40) {
		t.Fatal("grow failed on an empty pool")
	}
	h := &st.kv
	for name, call := range map[string]func(){
		"grow":           func() { b.grow(h, 41) },
		"grow (covered)": func() { b.grow(h, 1) },
		"release":        func() { b.release(h) },
		"swapOut":        func() { b.swapOut(h, 40) },
		"swapIn":         func() { b.swapIn(h) },
		"acquirePrefix":  func() { b.acquirePrefix(h, prefixHash(2), 32) },
		"markComputed":   func() { b.markComputed(h, 32) },
		"dedupRow":       func() { b.dedupRow(&st.kv) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a hold owned by another manager", name)
				}
			}()
			call()
		}()
	}
	for _, m := range []*BlockManager{a, b} {
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("a rejected call changed a pool: %v", err)
		}
	}
	if b.InUse() != 0 || len(b.holds) != 0 || a.InUse() != 3 || h.owner != a {
		t.Fatalf("pools after rejected calls: a in-use %d, b in-use %d, b holds %d", a.InUse(), b.InUse(), len(b.holds))
	}
	b.holds = append(b.holds, h)
	if err := b.CheckConservation(); err == nil {
		t.Fatal("CheckConservation accepted a registry listing another manager's hold")
	}
}

// growBatch is a replica's decode batch at chat-steady shape: 12 rows of
// 128-token prompts and 32-token outputs, at staggered progress, on
// 16-token blocks.
type growBatch struct {
	m    *BlockManager
	rows []*reqState
}

// newGrowBatch admits the rows. With pinned > 0 the manager shares
// prefixes, and the first pinned rows hold a 112-token prefix (two
// identities, alternating) and never finish, so dedup has repeat reads to
// find.
func newGrowBatch(tb testing.TB, pinned int) *growBatch {
	tb.Helper()
	m, err := NewBlockManager(4096*64, 16, 4, pinned > 0)
	if err != nil {
		tb.Fatal(err)
	}
	g := &growBatch{m: m}
	for i := 0; i < 12; i++ {
		r := &reqState{req: Request{ID: i, InputLen: 128, OutputLen: 32}, generated: i * 32 / 12}
		if i < pinned {
			r.req.OutputLen = 1 << 30
			if _, err := m.acquirePrefix(&r.kv, prefixHash(i%2+1), 112); err != nil {
				tb.Fatal(err)
			}
			m.markComputed(&r.kv, 112)
		}
		g.rows = append(g.rows, r)
	}
	return g
}

// round is one decode round as the scheduler runs it: a grow per row for
// the token it is about to write, dedup over the rows, then one token per
// row. A finished row releases its hold and is re-admitted as a fresh
// request, whose next grow registers the hold again.
func (g *growBatch) round() int {
	for _, r := range g.rows {
		if !g.m.grow(&r.kv, r.ctxTokens()+1) {
			panic("grow failed on a pool sized for the batch")
		}
	}
	saved := dedupRows(g.m, g.rows)
	for _, r := range g.rows {
		if r.generated++; r.generated >= r.req.OutputLen {
			g.m.release(&r.kv)
			r.generated = 0
		}
	}
	return saved
}

func TestGrowAllocationFree(t *testing.T) {
	g := newGrowBatch(t, 4)
	for i := 0; i < 64; i++ { // every churning row finishes at least once
		g.round()
	}
	// Two identities × two rows of 7 blocks: one repeat row each.
	if got, want := g.round(), 2*7*16; got != want {
		t.Fatalf("dedup saved %d tokens, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(200, func() { g.round() }); allocs != 0 {
		t.Fatalf("a steady-state grow+dedup round allocates %.1f times, want 0", allocs)
	}
	if err := g.m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBlockManagerGrow times one chat-steady decode round of
// hold-based grows (12 rows, finished rows released and re-admitted).
func BenchmarkBlockManagerGrow(b *testing.B) {
	g := newGrowBatch(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.round()
	}
}
