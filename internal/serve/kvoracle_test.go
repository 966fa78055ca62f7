package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// oracleManager is the prefix cache as a flat map: every shareable block is
// keyed by its chained content hash and block index, acquisition looks each
// block up in turn, and eviction scans the whole map for the smallest LRU
// sequence (release tick << 16 − block index). It is the block manager's
// earlier implementation, kept keyed by request ID as the reference the
// chain-indexed manager must match count for count and victim for victim.
type oracleManager struct {
	blockTokens, total, free int
	holds                    map[int]*oracleHold
	shared                   map[oracleKey]*oracleBlock
	tick                     int64
	cached, evicted          int
	hitTokens, missTokens    int
	peakInUse                int
	swapTotal, swapUsed      int
	dedupPass                int64
	victims                  []blockID // every block evictOne reclaimed, in order
}

type oracleHold struct {
	private, swap int
	pins          []*oracleBlock
}

type oracleKey struct {
	hash uint64
	idx  int
}

type oracleBlock struct {
	key       oracleKey
	id        blockID
	refs      int
	computed  bool
	lruSeq    int64
	dedupPass int64
	dedupLen  int
}

// blockID names a shareable block in both managers: its prefix identity
// hash and block index.
type blockID struct {
	prefix uint64
	idx    int
}

// oracleChainHash is the per-block content key the map is keyed by.
func oracleChainHash(prefixHash uint64, idx int) uint64 {
	return mix64(prefixHash + 0x9e3779b97f4a7c15*uint64(idx+1))
}

func newOracleManager(totalBlocks, blockTokens, swapBlocks int) *oracleManager {
	return &oracleManager{
		blockTokens: blockTokens, total: totalBlocks, free: totalBlocks, swapTotal: swapBlocks,
		holds:  make(map[int]*oracleHold),
		shared: make(map[oracleKey]*oracleBlock),
	}
}

func (o *oracleManager) hold(id int) *oracleHold {
	h := o.holds[id]
	if h == nil {
		h = &oracleHold{}
		o.holds[id] = h
	}
	return h
}

func (o *oracleManager) blocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + o.blockTokens - 1) / o.blockTokens
}

func (o *oracleManager) notePeak() {
	if used := o.total - o.free; used > o.peakInUse {
		o.peakInUse = used
	}
}

func (o *oracleManager) evictOne() bool {
	var victim *oracleBlock
	for _, b := range o.shared {
		if b.refs == 0 && (victim == nil || b.lruSeq < victim.lruSeq) {
			victim = b
		}
	}
	if victim == nil {
		return false
	}
	delete(o.shared, victim.key)
	o.victims = append(o.victims, victim.id)
	o.free++
	o.cached--
	o.evicted++
	return true
}

func (o *oracleManager) flushCache() int {
	n := 0
	for key, b := range o.shared {
		if b.refs == 0 {
			delete(o.shared, key)
			n++
		}
	}
	o.free += n
	o.evicted += n
	o.cached -= n
	return n
}

func (o *oracleManager) reserve(n int) bool {
	for o.free < n {
		if !o.evictOne() {
			return false
		}
	}
	return true
}

func (o *oracleManager) acquirePrefix(id int, prefixHash uint64, prefixTokens int) int {
	h := o.hold(id)
	if prefixTokens < o.blockTokens || len(h.pins) > 0 {
		return 0
	}
	cachedTokens, hitsDone := 0, false
	for idx := 0; idx < prefixTokens/o.blockTokens; idx++ {
		key := oracleKey{hash: oracleChainHash(prefixHash, idx), idx: idx}
		if b, ok := o.shared[key]; ok {
			if b.refs == 0 {
				o.cached--
			}
			b.refs++
			h.pins = append(h.pins, b)
			if b.computed && !hitsDone {
				cachedTokens += o.blockTokens
			} else {
				hitsDone = true
			}
			continue
		}
		hitsDone = true
		if !o.reserve(1) {
			break
		}
		o.free--
		b := &oracleBlock{key: key, id: blockID{prefix: prefixHash, idx: idx}, refs: 1}
		o.shared[key] = b
		h.pins = append(h.pins, b)
		o.notePeak()
	}
	return cachedTokens
}

func (o *oracleManager) creditPrefixStats(id, cachedTokens int) {
	o.hitTokens += cachedTokens
	if missed := len(o.hold(id).pins)*o.blockTokens - cachedTokens; missed > 0 {
		o.missTokens += missed
	}
}

func (o *oracleManager) markComputed(id, tokens int) {
	for _, b := range o.hold(id).pins {
		if (b.key.idx+1)*o.blockTokens <= tokens {
			b.computed = true
		}
	}
}

func (o *oracleManager) grow(id, tokens int) bool {
	h := o.hold(id)
	need := o.blocksFor(tokens) - len(h.pins) - h.private
	if need <= 0 {
		return true
	}
	if !o.reserve(need) {
		return false
	}
	o.free -= need
	h.private += need
	o.notePeak()
	return true
}

func (o *oracleManager) release(id int) int {
	h := o.hold(id)
	n := h.private
	o.free += n
	h.private = 0
	if len(h.pins) > 0 {
		o.tick++
		for _, b := range h.pins {
			n++
			if b.refs--; b.refs > 0 {
				continue
			}
			if !b.computed {
				delete(o.shared, b.key)
				o.free++
				continue
			}
			b.lruSeq = o.tick<<16 - int64(b.key.idx)
			o.cached++
		}
		h.pins = nil
	}
	return n
}

func (o *oracleManager) swapOut(id, tokens int) bool {
	h := o.hold(id)
	if tokens <= 0 || h.swap > 0 {
		return false
	}
	need := o.blocksFor(tokens)
	if o.swapUsed+need > o.swapTotal {
		return false
	}
	h.swap = need
	o.release(id)
	o.swapUsed += need
	return true
}

func (o *oracleManager) swapIn(id int) int {
	h := o.hold(id)
	n := h.swap
	h.swap = 0
	o.swapUsed -= n
	return n
}

func (o *oracleManager) dedupSavedTokens(ids []int) int {
	o.dedupPass++
	saved := 0
	for _, id := range ids {
		h := o.holds[id]
		if h == nil || len(h.pins) == 0 {
			continue
		}
		root := h.pins[0]
		if root.dedupPass != o.dedupPass {
			root.dedupPass, root.dedupLen = o.dedupPass, 0
		}
		if len(h.pins) <= root.dedupLen {
			saved += len(h.pins)
			continue
		}
		saved += root.dedupLen
		root.dedupLen = len(h.pins)
	}
	return saved * o.blockTokens
}

// checkConservation is the map manager's own audit: blocks are conserved,
// refcounts equal pins, and the cached counter matches a recount.
func (o *oracleManager) checkConservation() error {
	private, swap := 0, 0
	pins := make(map[*oracleBlock]int)
	for _, h := range o.holds {
		private += h.private
		swap += h.swap
		for _, b := range h.pins {
			pins[b]++
		}
	}
	cached := 0
	for _, b := range o.shared {
		if b.refs != pins[b] {
			return fmt.Errorf("oracle: block %v refcount %d but %d pins", b.id, b.refs, pins[b])
		}
		if b.refs == 0 {
			cached++
		}
	}
	if o.free+private+len(o.shared) != o.total || cached != o.cached || swap != o.swapUsed {
		return fmt.Errorf("oracle: free %d + private %d + shared %d of %d, cached %d/%d, swap %d/%d",
			o.free, private, len(o.shared), o.total, cached, o.cached, swap, o.swapUsed)
	}
	return nil
}

// lruOrder lists the evictable blocks in reclaim order.
func (o *oracleManager) lruOrder() []blockID {
	var bs []*oracleBlock
	for _, b := range o.shared {
		if b.refs == 0 {
			bs = append(bs, b)
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].lruSeq < bs[j].lruSeq })
	ids := make([]blockID, len(bs))
	for i, b := range bs {
		ids[i] = b.id
	}
	return ids
}

// blockState is one published block as both managers can report it.
type blockState struct {
	id       blockID
	refs     int
	computed bool
}

// published lists the oracle's blocks in sortBlockStates order.
func (o *oracleManager) published() []blockState {
	var out []blockState
	for _, b := range o.shared {
		out = append(out, blockState{id: b.id, refs: b.refs, computed: b.computed})
	}
	return sortBlockStates(out)
}

// sortBlockStates orders blocks by prefix hash, then index.
func sortBlockStates(bs []blockState) []blockState {
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].id.prefix != bs[j].id.prefix {
			return bs[i].id.prefix < bs[j].id.prefix
		}
		return bs[i].id.idx < bs[j].id.idx
	})
	return bs
}

// lruOrder lists the manager's evictable blocks in reclaim order.
func lruOrder(m *BlockManager) []blockID {
	var ids []blockID
	for b := m.lruHead; b != nil; b = b.next {
		ids = append(ids, blockID{prefix: b.chain.hash, idx: b.idx})
	}
	return ids
}

// publishedBlocks lists the manager's blocks in sortBlockStates order.
func publishedBlocks(m *BlockManager) []blockState {
	var out []blockState
	for _, c := range m.shared {
		for _, b := range c.blocks {
			out = append(out, blockState{id: blockID{prefix: c.hash, idx: b.idx}, refs: b.refs, computed: b.computed})
		}
	}
	return sortBlockStates(out)
}

// TestBlockManagerMatchesMapOracle runs one seeded random walk of
// admissions with prefix sharing, decode growth under pool pressure,
// prefill progress, releases of computed and half-built blocks, swap-out
// and swap-in, and cache flushes against the chain-indexed manager and the
// map-keyed oracle. After every step both must agree on hit and miss
// tokens, evictions, the published blocks, the LRU order and dedup over
// random request subsets, and both audits must pass. The victims a step
// reclaims are read off the manager's LRU list before the step, in list
// order, and must be the oracle's victims in its eviction order.
func TestBlockManagerMatchesMapOracle(t *testing.T) {
	const blocks, swapBlocks, bt = 48, 16, 16
	m, err := NewBlockManager(blocks*bt*4, bt, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	m.ConfigureSwapPool(swapBlocks)
	o := newOracleManager(blocks, bt, swapBlocks)
	rng := rand.New(rand.NewSource(20261017))
	var actives []walkReq
	nextID := 0
	var victims []blockID
	var cutShort, halfBuilt, flushes, swaps, revived int
	admit := func(r walkReq) {
		h := prefixHash(r.prefix)
		got, err := r.acquire(m, h, r.prefixLen)
		if err != nil {
			t.Fatal(err)
		}
		if want := o.acquirePrefix(r.id, h, r.prefixLen); got != want {
			t.Fatalf("acquire of request %d served %d cached tokens, oracle %d", r.id, got, want)
		}
		if r.sharedTokens(m) < r.prefixLen/bt*bt {
			cutShort++
		}
		if got > 0 {
			revived++
		}
		need := r.prefixLen + rng.Intn(32)
		ok, want := r.grow(m, need), o.grow(r.id, need)
		if ok != want {
			t.Fatalf("admission grow of request %d: %v, oracle %v", r.id, ok, want)
		}
		if ok {
			if h := r.hold(m); h != nil {
				m.creditPrefixStats(h, got)
			}
			o.creditPrefixStats(r.id, got)
		}
	}
	for step := 0; step < 8000; step++ {
		before := lruOrder(m)
		wasPublished := make(map[blockID]bool)
		for _, b := range publishedBlocks(m) {
			wasPublished[b.id] = true
		}
		evictedBefore := len(o.victims)
		switch op := rng.Intn(11); {
		case op <= 1 || len(actives) == 0:
			r := newWalkReq(nextID)
			nextID++
			r.prefix, r.prefixLen = rng.Intn(6)+1, rng.Intn(10*bt+8)
			admit(r)
			actives = append(actives, r)
		case op == 2: // decode growth, evicting cached blocks under pressure
			if r := actives[rng.Intn(len(actives))]; !r.swapped {
				need := r.prefixLen + rng.Intn(256)
				if ok, want := r.grow(m, need), o.grow(r.id, need); ok != want {
					t.Fatalf("step %d: grow %v, oracle %v", step, ok, want)
				}
			}
		case op == 3: // prefill progress
			if r := actives[rng.Intn(len(actives))]; !r.swapped {
				tokens := rng.Intn(r.prefixLen + 1)
				r.markComputed(m, tokens)
				o.markComputed(r.id, tokens)
			}
		case op == 4: // park
			k := rng.Intn(len(actives))
			if r := actives[k]; !r.swapped {
				tokens := r.prefixLen + rng.Intn(32) + 1
				ok, want := r.swapOut(m, tokens), o.swapOut(r.id, tokens)
				if ok != want {
					t.Fatalf("step %d: swap-out %v, oracle %v", step, ok, want)
				}
				if ok {
					actives[k].swapped = true
					swaps++
				}
			}
		case op == 5: // restore: swap in, then re-pin the prefix
			k := rng.Intn(len(actives))
			if r := actives[k]; r.swapped {
				if got, want := r.swapIn(m), o.swapIn(r.id); got != want {
					t.Fatalf("step %d: swap-in freed %d, oracle %d", step, got, want)
				}
				actives[k].swapped = false
				admit(actives[k])
			}
		case op == 6 && rng.Intn(15) == 0: // crash
			if got, want := m.FlushCache(), o.flushCache(); got != want {
				t.Fatalf("step %d: flush freed %d, oracle %d", step, got, want)
			}
			flushes++
		case op == 7: // reclaim one cached block directly
			ok := m.evictOne()
			if want := o.evictOne(); ok != want {
				t.Fatalf("step %d: evictOne %v, oracle %v", step, ok, want)
			}
		default: // finish, preempt or drop
			k := rng.Intn(len(actives))
			r := actives[k]
			if r.swapped {
				if got, want := r.swapIn(m), o.swapIn(r.id); got != want {
					t.Fatalf("step %d: drop freed %d swap blocks, oracle %d", step, got, want)
				}
			} else {
				if h := r.hold(m); h != nil {
					for _, b := range h.pins {
						if b.refs == 1 && !b.computed {
							halfBuilt++
							break
						}
					}
				}
				if got, want := r.release(m), o.release(r.id); got != want {
					t.Fatalf("step %d: release freed %d, oracle %d", step, got, want)
				}
			}
			actives = append(actives[:k], actives[k+1:]...)
		}

		// The manager's victims this step: blocks listed before the step
		// and no longer published after it, in list order. A flush reclaims
		// the whole list without going through evictOne.
		after := make(map[blockID]bool)
		for _, b := range publishedBlocks(m) {
			after[b.id] = true
		}
		if len(o.victims) > evictedBefore {
			for _, id := range before {
				if wasPublished[id] && !after[id] {
					victims = append(victims, id)
				}
			}
		}
		if len(victims) != len(o.victims) {
			t.Fatalf("step %d: %d victims so far, oracle %d", step, len(victims), len(o.victims))
		}
		for i := evictedBefore; i < len(victims); i++ {
			if victims[i] != o.victims[i] {
				t.Fatalf("step %d: victim %d is block %v, oracle evicted %v", step, i, victims[i], o.victims[i])
			}
		}
		if err := m.CheckConservation(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := o.checkConservation(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if m.HitTokens() != o.hitTokens || m.MissTokens() != o.missTokens || m.EvictedBlocks() != o.evicted ||
			m.CachedBlocks() != o.cached || m.free != o.free || m.PeakInUse() != o.peakInUse || m.SwappedBlocks() != o.swapUsed {
			t.Fatalf("step %d: hit/miss %d/%d evicted %d cached %d free %d peak %d swap %d; oracle %d/%d %d %d %d %d %d", step,
				m.HitTokens(), m.MissTokens(), m.EvictedBlocks(), m.CachedBlocks(), m.free, m.PeakInUse(), m.SwappedBlocks(),
				o.hitTokens, o.missTokens, o.evicted, o.cached, o.free, o.peakInUse, o.swapUsed)
		}
		if got, want := fmt.Sprint(publishedBlocks(m)), fmt.Sprint(o.published()); got != want {
			t.Fatalf("step %d: published blocks differ:\n%s\noracle:\n%s", step, got, want)
		}
		if got, want := fmt.Sprint(lruOrder(m)), fmt.Sprint(o.lruOrder()); got != want {
			t.Fatalf("step %d: LRU order differs:\n%s\noracle:\n%s", step, got, want)
		}
		for trial := 0; trial < 2; trial++ {
			// Random rows, duplicates included. The manager reaches even IDs
			// through DedupSavedTokens and odd ones through their holds, one
			// pass each; the oracle, keyed by ID throughout, runs the same
			// two passes.
			var byID, rowIDs []int
			var rows []*reqState
			for n := rng.Intn(12); n > 0 && len(actives) > 0; n-- {
				if r := actives[rng.Intn(len(actives))]; r.st != nil {
					rows = append(rows, r.st)
					rowIDs = append(rowIDs, r.id)
				} else {
					byID = append(byID, r.id)
				}
			}
			got := m.DedupSavedTokens(byID) + dedupRows(m, rows)
			if want := o.dedupSavedTokens(byID) + o.dedupSavedTokens(rowIDs); got != want {
				t.Fatalf("step %d: dedup saved %d tokens over %v and %v, oracle %d", step, got, byID, rowIDs, want)
			}
		}
	}
	for name, n := range map[string]int{
		"acquire cut short by pool exhaustion": cutShort,
		"release of a half-built block":        halfBuilt,
		"cache flush":                          flushes,
		"swap-out":                             swaps,
		"eviction":                             len(o.victims),
		"cache hit":                            revived,
	} {
		if n == 0 {
			t.Errorf("random walk never exercised %s", name)
		}
	}
}
