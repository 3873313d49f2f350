package serve

import (
	"embench/internal/prompt"
)

// CacheIdentity selects how two prompt prefixes are decided to be "the
// same" for KV reuse.
type CacheIdentity string

const (
	// IdentityShape keys prefixes by (section name, token count) chains —
	// the suite's original model: fixed sections with equal names and sizes
	// hold the same content (the shared system/task preamble every agent of
	// a workload sends), while histories that have diverged change size and
	// break the chain. It falsely hits prompts that merely have the same
	// shape, and cannot re-share diverged-then-reconverged histories whose
	// sizes drifted.
	IdentityShape CacheIdentity = "shape"
	// IdentityContent keys prefixes by chained content digests
	// (prompt.Section.Digest): sections with text are identified by what
	// they actually say, so same-shape-different-content prompts no longer
	// falsely hit and histories that reconverge to identical content
	// re-share their prefix. Token-count-only sections digest to their
	// (name, size), making the two identities agree exactly on synthetic
	// workloads.
	IdentityContent CacheIdentity = "content"
)

// prefixCache models KV-cache reuse across requests that share a prompt
// prefix. Prompts are section sequences (system preamble, task description,
// memory, dialogue, observation — see internal/prompt); two prompts share a
// cache entry exactly when their leading sections match under the cache's
// identity model (see CacheIdentity).
//
// Entries form a tree: each resident prefix entry owns its last section's
// tokens and points back to its parent prefix, so the live token footprint
// of the cache is the sum of entry sizes — the KV memory a real serving
// stack would pin. Capacity is enforced on that footprint (capTokens) and,
// for the deprecated entry-count model, on the entry count (capEntries).
//
// The cache is a deterministic LRU over chained-FNV prefix keys: every
// insert touches all prefixes of the prompt, and eviction removes the
// least-recently-touched CHAIN — evicting a prefix cascades to its resident
// extensions, so no suffix entry ever outlives (or hides capacity behind)
// an evicted parent. This is RadixAttention's LRU radix tree (SGLang, arxiv
// 2312.07104) laid out flat: entries live in one slab of int32 slots with a
// free list and a key→slot index, children are first-child/next-sibling
// links (prev makes an unlink O(1)), and recency is an intrusive doubly
// linked list — a touch moves an entry to the head, eviction pops the tail.
// The slab grows to the resident high-water mark; flush and reset keep it.
type prefixCache struct {
	capEntries int              // entry-count budget (deprecated model); 0 = unbounded
	capTokens  int              // live-token budget; 0 = unbounded
	index      map[uint64]int32 // resident key → slab slot
	slab       []cacheEntry
	free       int32 // first free slot, chained through next
	head, tail int32 // most and least recently touched entries
	liveTokens int   // sum of resident entries' sizes
	// Cumulative memory-pressure statistics (metrics.Serving rollup).
	peakTokens    int // high-water mark of liveTokens
	evictedTokens int // tokens removed by capacity eviction
}

// noSlot is the nil value of every slot link.
const noSlot int32 = -1

// cacheEntry is one resident prefix: its key, the token size of its last
// section, its parent, its resident extensions (kid heads a sibling list
// linked by next/prev) and its recency neighbours. The kid list is exact: a
// child can only be evicted together with its parent chain, so a resident
// entry's kids are always resident.
type cacheEntry struct {
	key                                   uint64
	size                                  int
	parent, kid, next, prev, newer, older int32
}

// newPrefixCache builds a cache bounded by entry count and/or live tokens;
// both zero (or negative) disables caching entirely.
func newPrefixCache(capEntries, capTokens int) *prefixCache {
	if capEntries <= 0 && capTokens <= 0 {
		return nil
	}
	c := &prefixCache{capEntries: max(capEntries, 0), capTokens: max(capTokens, 0), index: map[uint64]int32{}}
	c.reset()
	return c
}

// reset empties the cache and zeroes its statistics, keeping the slab and
// index storage for reuse (Endpoint.Reset).
func (c *prefixCache) reset() {
	if c != nil {
		c.flush()
		c.peakTokens, c.evictedTokens = 0, 0
	}
}

// FNV-1a constants, chained manually so a prefix key extends its parent's.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// chainSection folds one section's shape identity (name and token count)
// into a running prefix key.
func chainSection(h uint64, s prompt.Section) uint64 {
	for i := 0; i < len(s.Name); i++ {
		h ^= uint64(s.Name[i])
		h *= fnvPrime
	}
	sz := s.Size()
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(sz >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

// chainSectionContent folds one section's content identity (its
// prompt.Section.Digest) into a running prefix key.
func chainSectionContent(h uint64, s prompt.Section) uint64 {
	d := s.Digest()
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(d >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

// sectionKey is one prefix of a prompt: the chained FNV key covering the
// prompt up to and including a section, and that section's token size.
type sectionKey struct {
	key  uint64
	size int
}

// promptKey is a prompt's memoized prefix-chain identity. Routing probes
// every replica's cache and admission prices + inserts the prompt, so a
// chain is hashed once and shared by all of them: once per request in the
// closed loop, once per distinct prompt in a replay (replayOn's memo).
type promptKey struct {
	secs  []sectionKey
	total int // total prompt tokens (the sum of section sizes)
}

// chainKeysIdent computes p's prefix chain under the given identity model,
// reusing buf's backing array. The caller owns the lifetime: a scratch
// buffer may be reused once the returned key is no longer referenced.
func chainKeysIdent(buf []sectionKey, p prompt.Prompt, ident CacheIdentity) promptKey {
	k := promptKey{secs: buf[:0]}
	h := fnvOffset
	for _, s := range p.Sections {
		if ident == IdentityContent {
			h = chainSectionContent(h, s)
		} else {
			h = chainSection(h, s)
		}
		sz := s.Size()
		k.secs = append(k.secs, sectionKey{key: h, size: sz})
		k.total += sz
	}
	return k
}

// matchKey reports how many leading tokens of the keyed prompt are covered
// by cached prefixes: sections are matched front-to-back and the chain
// stops at the first miss, mirroring KV-cache prefix reuse.
func (c *prefixCache) matchKey(k promptKey) int {
	if c == nil {
		return 0
	}
	cached := 0
	for _, s := range k.secs {
		if _, ok := c.index[s.key]; !ok {
			break
		}
		cached += s.size
	}
	return cached
}

// pressure estimates how many warm tokens inserting the keyed prompt would
// evict: the uncached suffix grows the footprint by (total - cached)
// tokens, and whatever lands beyond the token budget must push out resident
// entries. Zero without a token budget, so entry-count deployments price
// exactly as before. Capacity-aware routing charges this as the placement
// penalty that keeps cache-affinity from piling every shared-preamble
// prompt onto one replica.
func (c *prefixCache) pressure(k promptKey, cached int) int {
	if c == nil {
		return 0
	}
	return c.pressureGrowth(k.total - cached)
}

// batchGrowth reports how many tokens inserting ALL the keyed prompts
// would add to the live footprint: the sizes of section prefixes that are
// neither resident nor shared with an earlier member (the inserted chains
// form a tree, so shared uncached prefixes — the batch's common preamble —
// count once). seen is caller-owned scratch, cleared here before use.
func (c *prefixCache) batchGrowth(keys []promptKey, seen map[uint64]bool) int {
	if c == nil {
		return 0
	}
	clear(seen)
	growth := 0
	for _, k := range keys {
		for _, s := range k.secs {
			if seen[s.key] {
				continue
			}
			seen[s.key] = true
			if _, ok := c.index[s.key]; !ok {
				growth += s.size
			}
		}
	}
	return growth
}

// pressureGrowth converts an insertion's token growth into the warm-token
// displacement the token budget forces (the shared clamp behind pressure
// and batchGrowth-based batch pressure).
func (c *prefixCache) pressureGrowth(growth int) int {
	if c == nil || c.capTokens <= 0 {
		return 0
	}
	over := c.liveTokens + growth - c.capTokens
	if over <= 0 {
		return 0
	}
	return min(over, c.liveTokens)
}

// insertKey touches every prefix of the keyed prompt (so the whole prompt
// becomes reusable by followers) and evicts least-recently-touched chains
// beyond capacity.
func (c *prefixCache) insertKey(k promptKey) {
	if c == nil {
		return
	}
	parent := noSlot
	for _, s := range k.secs {
		i, ok := c.index[s.key]
		if ok {
			c.unlinkLRU(i)
		} else {
			i = c.alloc(cacheEntry{key: s.key, size: s.size, parent: parent, kid: noSlot, next: noSlot, prev: noSlot})
			c.index[s.key] = i
			c.liveTokens += s.size
			// The parent is resident here: the chain is inserted
			// front-to-back, so it was created or touched one iteration ago.
			if parent != noSlot {
				pe := &c.slab[parent]
				c.slab[i].next = pe.kid
				if pe.kid != noSlot {
					c.slab[pe.kid].prev = i
				}
				pe.kid = i
			}
		}
		c.pushHead(i)
		parent = i
	}
	c.evictOver()
	if c.liveTokens > c.peakTokens {
		c.peakTokens = c.liveTokens
	}
}

// alloc places e in a free slot, growing the slab only when none is free.
func (c *prefixCache) alloc(e cacheEntry) int32 {
	if i := c.free; i != noSlot {
		c.free = c.slab[i].next
		c.slab[i] = e
		return i
	}
	c.slab = append(c.slab, e)
	return int32(len(c.slab) - 1)
}

// pushHead makes slot i the most recently touched entry.
func (c *prefixCache) pushHead(i int32) {
	e := &c.slab[i]
	e.newer, e.older = noSlot, c.head
	if c.head != noSlot {
		c.slab[c.head].newer = i
	} else {
		c.tail = i
	}
	c.head = i
}

// unlinkLRU takes slot i out of the recency list.
func (c *prefixCache) unlinkLRU(i int32) {
	e := &c.slab[i]
	if e.newer != noSlot {
		c.slab[e.newer].older = e.older
	} else {
		c.head = e.older
	}
	if e.older != noSlot {
		c.slab[e.older].newer = e.newer
	} else {
		c.tail = e.newer
	}
}

// evictOver removes least-recently-touched chains until both budgets hold.
// Each pop evicts the tail entry TOGETHER with its resident extensions: a
// suffix is unreachable (matchKey stops at its missing parent) yet still
// holds KV memory, so leaving it behind — the seed's orphaned-suffix bug —
// both leaked capacity and corrupted later matches when the parent was
// re-inserted around a stale suffix.
func (c *prefixCache) evictOver() {
	for (c.capEntries > 0 && len(c.index) > c.capEntries) ||
		(c.capTokens > 0 && c.liveTokens > c.capTokens) {
		i := c.tail
		e := &c.slab[i] // unlinked from its surviving parent's kids first
		if e.prev != noSlot {
			c.slab[e.prev].next = e.next
		} else if e.parent != noSlot {
			c.slab[e.parent].kid = e.next
		}
		if e.next != noSlot {
			c.slab[e.next].prev = e.prev
		}
		c.evictChain(i)
	}
}

// evictChain removes slot i and, recursively, its resident extensions —
// the cascade that keeps every resident key's parent chain resident — and
// returns their slots to the free list.
func (c *prefixCache) evictChain(i int32) {
	e := &c.slab[i]
	delete(c.index, e.key)
	c.unlinkLRU(i)
	c.liveTokens -= e.size
	c.evictedTokens += e.size
	for kid := e.kid; kid != noSlot; {
		next := c.slab[kid].next
		c.evictChain(kid)
		kid = next
	}
	c.slab[i].next, c.free = c.free, i
}

// flush empties the cache, pricing every live token as a capacity
// eviction: retiring a replica (autoscale scale-down) destroys its warm KV
// state, and the memory-pressure accounting must see that loss exactly as
// it sees LRU eviction. Peak and cumulative-eviction statistics survive
// the flush; a reactivated replica starts cold but keeps its history.
func (c *prefixCache) flush() {
	if c == nil {
		return
	}
	c.evictedTokens += c.liveTokens
	c.liveTokens = 0
	clear(c.index)
	c.slab = c.slab[:0]
	c.free, c.head, c.tail = noSlot, noSlot, noSlot
}

// Live/peak/evicted token accounting, rolled up into metrics.Serving by
// Endpoint.Stats.
func (c *prefixCache) stats() (live, peak, evicted int) {
	if c == nil {
		return 0, 0, 0
	}
	return c.liveTokens, c.peakTokens, c.evictedTokens
}
