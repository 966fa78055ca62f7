package serve

import (
	"errors"
	"fmt"
)

// BlockManager is the paged KV-cache allocator: the platform's usable
// memory (HBM minus weights on GPUs, enclave size minus weights under SGX,
// installed DRAM otherwise) is carved into fixed-size blocks of
// blockTokens tokens each, and requests hold exactly enough blocks to
// cover their context. Paging the cache is what lets the scheduler admit
// requests until memory — not batch shape — is the binding constraint,
// and what makes preemption a cheap release-and-requeue.
//
// With sharing enabled the manager additionally keeps a block-level prefix
// cache (vLLM-style, laid out like PagedAttention's block table): full
// blocks of a request's declared prompt prefix are published, with
// reference counts, in the prefix's chain — one slice of blocks per prefix
// identity, indexed by block — so later requests with the same prefix pin
// the same physical blocks instead of recomputing and re-storing them.
// Blocks whose refcount drops to zero are retained in an LRU cache and
// reclaimed only under allocation pressure (leaf-first, so a cached
// block's parents always outlive it).
type BlockManager struct {
	blockTokens   int
	bytesPerToken int64
	total         int
	free          int // blocks neither privately held nor backing a shared entry
	sharing       bool

	// holds lists every non-empty kvHold the manager accounts for; each
	// hold stores its own slot, so registering and retiring one is O(1)
	// and CheckConservation recounts the pool from this slice alone.
	holds []*kvHold
	// byID backs the exported request-ID methods, and spare recycles the
	// holds they forget. Only those methods touch either; the scheduler
	// passes each request's embedded hold instead.
	byID  map[int]*kvHold
	spare []*kvHold
	// shared maps a prefix identity hash to its chain of published blocks.
	shared map[uint64]*prefixChain
	// lruHead..lruTail lists the cached (refcount-zero) blocks in reclaim
	// order, head first: release appends a chain's blocks deepest first, a
	// revival unlinks its block, and eviction pops the head.
	lruHead, lruTail *sharedBlock
	cached           int   // shared blocks nobody pins (refs == 0), kept so InUse is O(1)
	dedupPass        int64 // stamp of the latest dedup pass
	peakInUse        int
	evicted          int
	hitTokens        int
	missTokens       int

	// Host swap pool (swap-to-host preemption): a bounded region of
	// untrusted host memory holding preempted requests' KV copies. Swap
	// blocks are accounted separately from the device pool — parking a
	// victim frees its device blocks and occupies swap blocks instead.
	swapTotal int
	swapUsed  int
	swapPeak  int
}

// kvHold is one request's holding in a BlockManager: its private blocks,
// the shared prefix blocks it pins and the swap blocks its parked copy
// occupies. It is embedded in the request's state, so the per-round path
// reaches it without a lookup; only the manager reads or writes its
// fields. A non-empty hold is registered with exactly one manager. It
// changes manager only while empty (a disaggregated handoff releases it
// at the source before the destination parks the copy).
type kvHold struct {
	private int
	// pins are the leading blocks of one prefix chain, from block index 0.
	// The slice aliases the chain's own block slice, which is safe because
	// a pinned block is never evicted or replaced; it is never appended to.
	pins  []*sharedBlock
	swap  int
	owner *BlockManager // the manager listing the hold; nil while it holds nothing
	slot  int           // index in owner.holds
}

// prefixChain is one prefix identity's published blocks: blocks[i] is the
// shareable block i of the prefix. A chain is contiguous from block 0 —
// publishing extends it at the end, and blocks leave only from the end —
// so two prefixes that differ anywhere share no block (the radix-tree
// property, flattened to one chain per identity).
type prefixChain struct {
	hash   uint64
	blocks []*sharedBlock
}

// sharedBlock is one physical block published in the prefix cache.
type sharedBlock struct {
	chain *prefixChain
	idx   int // index in chain.blocks
	refs  int
	// computed marks the block's KV entries as filled; only computed blocks
	// count as cache hits (a block being prefilled by one request is pinned
	// by, but not yet useful to, a concurrent sharer).
	computed bool
	// prev and next link a cached (refs == 0) block into the manager's LRU
	// list; both are nil while the block is pinned.
	prev, next *sharedBlock
	// dedupPass and dedupLen are dedup-pass scratch, used on chain
	// roots only: the pass that last saw the root, and the longest pin list
	// under it in that pass.
	dedupPass int64
	dedupLen  int
}

// mix64 is the splitmix64 finalizer: a cheap bijective mix that spreads
// adjacent inputs across the hash space. The prefix identity hash, the
// failure stream's seed and the retry jitter build on it.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewBlockManager sizes the pool from a byte budget. It fails when the
// budget does not admit even one block — the platform cannot serve the
// model at all (e.g. weights alone overflow the enclave). sharing enables
// the prefix cache; without it the manager is a plain per-request
// allocator.
func NewBlockManager(budgetBytes int64, blockTokens int, bytesPerToken int64, sharing bool) (*BlockManager, error) {
	if blockTokens <= 0 || bytesPerToken <= 0 {
		return nil, fmt.Errorf("serve: block of %d tokens × %d bytes/token is not allocatable", blockTokens, bytesPerToken)
	}
	blockBytes := int64(blockTokens) * bytesPerToken
	total := int(budgetBytes / blockBytes)
	if total <= 0 {
		return nil, fmt.Errorf("serve: KV budget %d bytes below one %d-byte block", budgetBytes, blockBytes)
	}
	return &BlockManager{
		blockTokens:   blockTokens,
		bytesPerToken: bytesPerToken,
		total:         total,
		free:          total,
		sharing:       sharing,
		byID:          make(map[int]*kvHold),
		shared:        make(map[uint64]*prefixChain),
	}, nil
}

// ConfigureSwapPool sizes the host swap pool in blocks. Zero (the default)
// disables swapping: swapOut then always fails and the scheduler falls
// back to recompute.
func (m *BlockManager) ConfigureSwapPool(blocks int) {
	if blocks < 0 {
		blocks = 0
	}
	m.swapTotal = blocks
}

// SwapPoolBlocks returns the host swap pool capacity.
func (m *BlockManager) SwapPoolBlocks() int { return m.swapTotal }

// SwappedBlocks returns the swap blocks currently parked.
func (m *BlockManager) SwappedBlocks() int { return m.swapUsed }

// PeakSwapBlocks returns the swap pool's occupancy high-water mark.
func (m *BlockManager) PeakSwapBlocks() int { return m.swapPeak }

// swapOut parks a preempted request's computed KV entries in the host swap
// pool and releases everything its hold has in the device pool (private
// blocks free, shared pins drop exactly as release — computed prefix blocks
// stay cached for other sharers). It is all-or-nothing: when the swap pool
// cannot hold BlocksFor(tokens) more blocks it returns false and the
// hold's device blocks are untouched (the caller falls back to
// recompute). The swap copy is self-contained: it covers all `tokens`
// leading entries, including any span shared prefix blocks also cover, so
// a later swap-in never depends on cache residency.
func (m *BlockManager) swapOut(h *kvHold, tokens int) bool {
	m.check(h)
	if tokens <= 0 || h.swap > 0 {
		return false // nothing to park, or already parked: one copy per request
	}
	need := m.BlocksFor(tokens)
	if m.swapUsed+need > m.swapTotal {
		return false
	}
	if h.owner == nil {
		m.register(h)
	}
	h.swap = need // set before release, which then keeps the hold registered
	m.release(h)
	m.swapUsed += need
	if m.swapUsed > m.swapPeak {
		m.swapPeak = m.swapUsed
	}
	return true
}

// swapIn releases a hold's parked swap blocks (its KV copy has been
// transferred back into device blocks the caller allocated) and returns
// how many were freed. Dropping a swapped request uses the same call —
// the pool does not care whether the copy was restored or discarded.
func (m *BlockManager) swapIn(h *kvHold) int {
	m.check(h)
	n := h.swap
	if n == 0 {
		return 0
	}
	h.swap = 0
	m.swapUsed -= n
	m.settle(h)
	return n
}

// TotalBlocks returns the pool size.
func (m *BlockManager) TotalBlocks() int { return m.total }

// InUse returns the actively held block count: private blocks plus shared
// blocks with a nonzero refcount. Cached (refcount-zero) blocks are not in
// use — they are reclaimable retained state, reported by CachedBlocks.
func (m *BlockManager) InUse() int { return m.total - m.free - m.cached }

// CachedBlocks returns the number of retained prefix blocks nobody pins
// (refcount zero, evictable).
func (m *BlockManager) CachedBlocks() int { return m.cached }

// PeakInUse returns the allocation high-water mark (private + shared +
// cached — the memory-pressure peak).
func (m *BlockManager) PeakInUse() int { return m.peakInUse }

// EvictedBlocks returns how many cached blocks were reclaimed under
// allocation pressure over the manager's lifetime.
func (m *BlockManager) EvictedBlocks() int { return m.evicted }

// HitTokens returns the cumulative prompt tokens served from the prefix
// cache instead of being recomputed.
func (m *BlockManager) HitTokens() int { return m.hitTokens }

// MissTokens returns the cumulative shareable prefix tokens that were not
// in cache at acquisition time.
func (m *BlockManager) MissTokens() int { return m.missTokens }

// BlocksFor returns the blocks needed to hold `tokens` cache entries.
func (m *BlockManager) BlocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + m.blockTokens - 1) / m.blockTokens
}

// notePeak updates the high-water mark after an allocation.
func (m *BlockManager) notePeak() {
	if used := m.total - m.free; used > m.peakInUse {
		m.peakInUse = used
	}
}

// evictOne reclaims the least-recently-released cached block, the head of
// the LRU list. It returns false when nothing is evictable.
func (m *BlockManager) evictOne() bool {
	b := m.lruHead
	if b == nil {
		return false
	}
	m.unlinkLRU(b)
	m.drop(b)
	m.free++
	m.cached--
	m.evicted++
	return true
}

// FlushCache reclaims every cached (refcount-zero) prefix block and
// returns how many were freed. A replica crash calls this: the cache's
// contents die with the TEE whose keys sealed them, so post-recovery
// sharers recompute. Pinned blocks (nonzero refcount) are untouched.
func (m *BlockManager) FlushCache() int {
	n := 0
	for m.lruHead != nil {
		b := m.lruHead
		m.unlinkLRU(b)
		m.drop(b)
		n++
	}
	m.free += n
	m.evicted += n
	m.cached -= n
	return n
}

// pushLRU appends a block whose refcount just reached zero to the LRU
// list's tail: it is reclaimed after every block cached before it.
//
// Reclaim order is least recently released first and, within one
// release, deepest block first. That makes eviction leaf-first: within a
// chain the unpinned blocks are a suffix (every hold pinning a block pins
// all blocks before it), the last release of a block comes no earlier
// than the last release of any deeper one, and so a block is always
// listed after its deeper neighbour. The head is therefore always its
// chain's last block, which is what keeps chains contiguous.
func (m *BlockManager) pushLRU(b *sharedBlock) {
	b.prev, b.next = m.lruTail, nil
	if m.lruTail != nil {
		m.lruTail.next = b
	} else {
		m.lruHead = b
	}
	m.lruTail = b
}

// unlinkLRU removes a cached block from the LRU list in O(1), for a
// revival or a reclaim.
func (m *BlockManager) unlinkLRU(b *sharedBlock) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		m.lruHead = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		m.lruTail = b.prev
	}
	b.prev, b.next = nil, nil
}

// publish appends a new uncomputed block, pinned once, to the chain. The
// caller has reserved its block.
func (c *prefixChain) publish() {
	c.blocks = append(c.blocks, &sharedBlock{chain: c, idx: len(c.blocks), refs: 1})
}

// drop unpublishes a block nobody pins, which must be its chain's last
// block, and unmaps the chain once it is empty. Block accounting is the
// caller's.
func (m *BlockManager) drop(b *sharedBlock) {
	c := b.chain
	last := len(c.blocks) - 1
	if b.idx != last || c.blocks[last] != b {
		panic("serve: prefix cache dropped a block that is not its chain's leaf")
	}
	c.blocks[last] = nil
	c.blocks = c.blocks[:last]
	if last == 0 {
		delete(m.shared, c.hash)
	}
}

// reserve frees up n blocks for allocation, evicting cached blocks as
// needed. It reports whether n blocks are now free; on false the pool is
// left as reclaimed so far (eviction is not undone — evicted cache entries
// were reclaimable anyway).
func (m *BlockManager) reserve(n int) bool {
	for m.free < n {
		if !m.evictOne() {
			return false
		}
	}
	return true
}

// register lists a hold that is about to hold its first block.
func (m *BlockManager) register(h *kvHold) {
	h.owner, h.slot = m, len(m.holds)
	m.holds = append(m.holds, h)
}

// settle retires a hold from the registry once it holds nothing, moving
// the last registered hold into its slot.
func (m *BlockManager) settle(h *kvHold) {
	if h.owner == nil || h.private != 0 || len(h.pins) != 0 || h.swap != 0 {
		return
	}
	last := len(m.holds) - 1
	moved := m.holds[last]
	m.holds[h.slot], moved.slot = moved, h.slot
	m.holds[last] = nil
	m.holds = m.holds[:last]
	h.owner, h.slot = nil, 0
}

// check rejects a hold registered with another manager. Counting or
// freeing it here would corrupt both pools' accounting, and the only
// legitimate move between managers happens while the hold is empty.
func (m *BlockManager) check(h *kvHold) {
	if h.owner != nil && h.owner != m {
		panic("serve: KV hold presented to a BlockManager that does not own it")
	}
}

// acquirePrefix pins a hold onto the shared blocks of its request's prompt
// prefix, publishing blocks that are not cached yet. prefixHash is the
// chained identity of the prefix content; prefixTokens its length (only
// whole blocks are shareable — the remainder lives in private blocks).
//
// It returns the number of leading prefix tokens whose KV entries are
// already computed and cached — tokens the request's prefill can skip.
// Publishing stops (without failing) when the pool cannot back further
// blocks; the request covers the rest with private blocks via grow.
// Acquiring twice for the same hold is an error — release first.
//
// Hit/miss statistics are NOT updated here: an admission that acquires a
// prefix and then fails to grow releases and retries later, and counting
// at acquire time would credit the same tokens once per retry. The
// scheduler calls creditPrefixStats once the request is actually
// admitted.
func (m *BlockManager) acquirePrefix(h *kvHold, prefixHash uint64, prefixTokens int) (cachedTokens int, err error) {
	m.check(h)
	if !m.sharing || prefixTokens < m.blockTokens {
		return 0, nil
	}
	if len(h.pins) > 0 {
		return 0, errPrefixHeld
	}
	nBlocks := prefixTokens / m.blockTokens // full blocks only
	c := m.shared[prefixHash]
	pinned := 0
	if c != nil {
		// Pin the published blocks, reviving cached ones. Hits stop at the
		// first uncomputed block: the rest must be recomputed in order.
		pinned = min(nBlocks, len(c.blocks))
		hitsDone := false
		for _, b := range c.blocks[:pinned] {
			if b.refs == 0 {
				m.unlinkLRU(b)
				m.cached--
			}
			b.refs++
			if b.computed && !hitsDone {
				cachedTokens += m.blockTokens
			} else {
				hitsDone = true
			}
		}
	}
	// Publish the missing tail. Every block of the chain is pinned now, so
	// the evictions reserve makes never touch it.
	for ; pinned < nBlocks; pinned++ {
		if !m.reserve(1) {
			break // pool exhausted: remaining prefix tokens go to private blocks
		}
		if c == nil {
			c = &prefixChain{hash: prefixHash, blocks: make([]*sharedBlock, 0, nBlocks)}
			m.shared[prefixHash] = c
		}
		m.free--
		c.publish()
		m.notePeak()
	}
	if pinned > 0 {
		if h.owner == nil {
			m.register(h)
		}
		h.pins = c.blocks[:pinned:pinned]
	}
	return cachedTokens, nil
}

// errPrefixHeld rejects a second prefix acquisition on one hold.
var errPrefixHeld = errors.New("serve: request acquires a prefix it already holds")

// creditPrefixStats commits the hit/miss accounting of a successful
// admission: cachedTokens prefix tokens were served from cache, and the
// rest of the hold's pinned prefix had to be (re)computed.
func (m *BlockManager) creditPrefixStats(h *kvHold, cachedTokens int) {
	m.hitTokens += cachedTokens
	if missed := m.sharedTokens(h) - cachedTokens; missed > 0 {
		m.missTokens += missed
	}
}

// sharedTokens returns how many prompt tokens of the hold are covered by
// pinned shared blocks.
func (m *BlockManager) sharedTokens(h *kvHold) int {
	return len(h.pins) * m.blockTokens
}

// markComputed records that the request's prefill has filled its pinned
// prefix blocks up to `tokens` prompt tokens, making them cache hits for
// later sharers.
func (m *BlockManager) markComputed(h *kvHold, tokens int) {
	m.check(h)
	for _, b := range h.pins {
		if (b.idx+1)*m.blockTokens <= tokens {
			b.computed = true
		}
	}
}

// grow ensures the hold has enough blocks for `tokens` cache entries,
// counting pinned shared blocks first and allocating the private-block
// shortfall (evicting cached blocks under pressure). It reports whether
// the pool could satisfy the request; on false the hold is unchanged
// (all-or-nothing). When the hold already covers `tokens` — nearly every
// decode round — it costs a few field reads and a multiply, inlined at the
// call site.
func (m *BlockManager) grow(h *kvHold, tokens int) bool {
	return h.owner == m && tokens <= (len(h.pins)+h.private)*m.blockTokens || m.growTo(h, tokens)
}

// growTo is grow's allocating path.
func (m *BlockManager) growTo(h *kvHold, tokens int) bool {
	m.check(h)
	need := m.BlocksFor(tokens) - len(h.pins) - h.private
	if need <= 0 {
		return true
	}
	if !m.reserve(need) {
		return false
	}
	m.free -= need
	if h.owner == nil {
		m.register(h)
	}
	h.private += need
	m.notePeak()
	return true
}

// release frees every private block the hold has, unpins its shared
// blocks, and returns the total count released; a parked swap copy stays.
// Shared blocks whose refcount drops to zero stay cached (leaf-first LRU)
// if computed, and are freed immediately if their prefill never
// completed.
func (m *BlockManager) release(h *kvHold) int {
	m.check(h)
	n := h.private
	m.free += n
	h.private = 0
	// Deepest block first, so the blocks this release caches join the LRU
	// list leaf-first.
	for j := len(h.pins) - 1; j >= 0; j-- {
		b := h.pins[j]
		n++
		b.refs--
		if b.refs > 0 {
			continue
		}
		if !b.computed {
			m.drop(b) // half-built block: content is garbage
			m.free++
			continue
		}
		m.pushLRU(b)
		m.cached++
	}
	h.pins = nil
	m.settle(h)
	return n
}

// startDedup starts a dedup pass: each dedupRow call then counts how many
// of its row's pinned blocks repeat blocks an earlier row of the pass
// already read. Summed over a decode batch, times the block size, that is
// the per-row KV read traffic that re-reads shared physical blocks (pins
// minus unique blocks). The scheduler subtracts these from the decode
// step's resident working set: shared prefix pages are mapped once however
// many rows stream them, so they do not widen TLB reach or enclave paging
// pressure.
//
// A pass is O(rows) and allocation-free. A request's pins are the blocks
// at indices 0, 1, … of one prefix chain, contiguous from the root; a
// block belongs to exactly one chain, so rows pinning one block pin one
// chain; and a pinned block is never evicted or replaced, so those rows
// pin the same object at every index they both reach. Two rows therefore
// share blocks exactly when they share a root, and then over their whole
// common length: the unique blocks under one root are its longest pin
// list.
func (m *BlockManager) startDedup() { m.dedupPass++ }

// dedupRow adds one row to the current dedup pass and returns how many of
// its pins repeat blocks an earlier row of the pass already read.
func (m *BlockManager) dedupRow(h *kvHold) int {
	m.check(h)
	p := h.pins
	if len(p) == 0 {
		return 0
	}
	root := p[0]
	if root.dedupPass != m.dedupPass {
		root.dedupPass, root.dedupLen = m.dedupPass, 0
	}
	if len(p) <= root.dedupLen {
		return len(p)
	}
	repeats := root.dedupLen
	root.dedupLen = len(p)
	return repeats
}

// The exported request-ID methods below are the manager's public API for
// callers that track requests by ID, such as replay tools. Each finds the
// request's hold in byID, runs the hold method of the same name, and
// forgets the hold once it is empty. The scheduler never calls them.

// idHold returns request reqID's hold, creating it on first use.
func (m *BlockManager) idHold(reqID int) *kvHold {
	h := m.byID[reqID]
	if h == nil {
		if n := len(m.spare); n > 0 {
			h, m.spare = m.spare[n-1], m.spare[:n-1]
		} else {
			h = new(kvHold)
		}
		m.byID[reqID] = h
	}
	return h
}

// forget drops request reqID's hold from byID once it holds nothing,
// keeping it for reuse.
func (m *BlockManager) forget(reqID int, h *kvHold) {
	if h.owner == nil {
		delete(m.byID, reqID)
		m.spare = append(m.spare, h)
	}
}

// AcquirePrefix pins request reqID onto the shared blocks of its prompt
// prefix and returns the leading prefix tokens already computed and
// cached; see acquirePrefix. Acquiring twice for the same request is an
// error — Release first.
func (m *BlockManager) AcquirePrefix(reqID int, prefixHash uint64, prefixTokens int) (cachedTokens int, err error) {
	h := m.idHold(reqID)
	cachedTokens, err = m.acquirePrefix(h, prefixHash, prefixTokens)
	m.forget(reqID, h)
	if err != nil {
		return 0, fmt.Errorf("serve: request %d acquires a prefix it already holds", reqID)
	}
	return cachedTokens, nil
}

// Grow ensures the request holds enough blocks for `tokens` cache entries
// and reports whether the pool could satisfy it, all-or-nothing; see grow.
func (m *BlockManager) Grow(reqID, tokens int) bool {
	h := m.idHold(reqID)
	ok := m.grow(h, tokens)
	m.forget(reqID, h)
	return ok
}

// Release frees every private block the request holds, unpins its shared
// blocks, and returns the total count released; see release.
func (m *BlockManager) Release(reqID int) int {
	h := m.idHold(reqID)
	n := m.release(h)
	m.forget(reqID, h)
	return n
}

// DedupSavedTokens returns how many tokens of per-row KV read traffic
// across the given requests are repeat reads of the same shared physical
// blocks, in one dedup pass (see startDedup).
func (m *BlockManager) DedupSavedTokens(ids []int) int {
	if !m.sharing {
		return 0
	}
	m.startDedup()
	saved := 0
	for _, id := range ids {
		if h := m.byID[id]; h != nil {
			saved += m.dedupRow(h)
		}
	}
	return saved * m.blockTokens
}

// CheckConservation verifies the pool's accounting invariants: every block
// is exactly one of free, privately held, or backing a shared entry;
// shared refcounts equal the pins held by requests; every chain is
// contiguous from block 0 and every pin list is a prefix of one; the LRU
// list holds exactly the unpinned (necessarily computed) blocks, each
// chain's deepest first, and the cached-block counter matches it; and
// every live hold is registered here, exactly once, at its own slot.
// Tests call this after adversarial share/preempt/evict interleavings.
func (m *BlockManager) CheckConservation() error {
	private, swapSum := 0, 0
	pinRefs := make(map[*sharedBlock]int)
	for i, h := range m.holds {
		if h.owner != m || h.slot != i {
			return fmt.Errorf("serve: registry slot %d lists a hold that records another manager or slot %d", i, h.slot)
		}
		if h.private == 0 && len(h.pins) == 0 && h.swap == 0 {
			return fmt.Errorf("serve: hold %d holds nothing but is still registered", i)
		}
		if h.private < 0 {
			return fmt.Errorf("serve: negative private holding %d", h.private)
		}
		private += h.private
		// DedupSavedTokens relies on every pin list being a chain's
		// published blocks from index 0.
		for j, b := range h.pins {
			c := b.chain
			if c == nil || m.shared[c.hash] != c || j >= len(c.blocks) || c.blocks[j] != b {
				return fmt.Errorf("serve: hold %d pin %d is not block %d of a published chain", i, j, j)
			}
			pinRefs[b]++
		}
		if h.swap < 0 {
			return fmt.Errorf("serve: hold %d parks %d swap blocks", i, h.swap)
		}
		swapSum += h.swap
		// A swapped hold has nothing in the device pool: swapOut released
		// its private blocks and shared pins atomically.
		if h.swap > 0 && (h.private != 0 || len(h.pins) != 0) {
			return fmt.Errorf("serve: swapped hold %d still holds %d private / %d pinned device blocks",
				i, h.private, len(h.pins))
		}
	}
	for id, h := range m.byID {
		if h.owner != m {
			return fmt.Errorf("serve: request %d's hold is not registered with this manager", id)
		}
	}
	shared, cached := 0, 0
	for hash, c := range m.shared {
		if c.hash != hash || len(c.blocks) == 0 {
			return fmt.Errorf("serve: chain %#x is mapped under %#x with %d blocks", c.hash, hash, len(c.blocks))
		}
		for j, b := range c.blocks {
			if b == nil || b.chain != c || b.idx != j {
				return fmt.Errorf("serve: chain %#x is not contiguous at block %d", hash, j)
			}
			if b.refs < 0 {
				return fmt.Errorf("serve: negative refcount %d on block %d of chain %#x", b.refs, j, hash)
			}
			if b.refs != pinRefs[b] {
				return fmt.Errorf("serve: block %d of chain %#x has refcount %d but %d pins", j, hash, b.refs, pinRefs[b])
			}
			if b.refs == 0 {
				if !b.computed {
					return fmt.Errorf("serve: unpinned block %d of chain %#x was never computed", j, hash)
				}
				cached++
			}
		}
		shared += len(c.blocks)
	}
	if got := m.free + private + shared; got != m.total {
		return fmt.Errorf("serve: block conservation broken: free %d + private %d + shared %d = %d, want %d",
			m.free, private, shared, got, m.total)
	}
	// Walking the LRU list, each chain's unpinned suffix must appear
	// deepest block first, so eviction always takes a leaf.
	listed := 0
	taken := make(map[*prefixChain]int)
	var prev *sharedBlock
	for b := m.lruHead; b != nil; prev, b = b, b.next {
		c := b.chain
		if b.prev != prev || b.refs != 0 || c == nil || m.shared[c.hash] != c || b.idx >= len(c.blocks) || c.blocks[b.idx] != b {
			return fmt.Errorf("serve: LRU entry %d is not a linked, unpinned, published block", listed)
		}
		if want := len(c.blocks) - 1 - taken[c]; b.idx != want {
			return fmt.Errorf("serve: LRU lists block %d of chain %#x where block %d is next leaf-first", b.idx, c.hash, want)
		}
		taken[c]++
		listed++
	}
	if prev != m.lruTail {
		return fmt.Errorf("serve: LRU tail is not the list's last block")
	}
	if listed != cached || cached != m.cached {
		return fmt.Errorf("serve: %d cached blocks, %d on the LRU list, but the counter says %d", cached, listed, m.cached)
	}
	if swapSum != m.swapUsed {
		return fmt.Errorf("serve: swap pool accounting broken: %d parked, %d used", swapSum, m.swapUsed)
	}
	if m.swapUsed > m.swapTotal {
		return fmt.Errorf("serve: swap pool overcommitted: %d used of %d", m.swapUsed, m.swapTotal)
	}
	return nil
}
