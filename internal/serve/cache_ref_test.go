package serve

import (
	"math/rand"
	"slices"
	"testing"
)

// refCache is the prefix cache as it was before the slab layout, kept
// verbatim (renamed) as the differential reference for prefixCache: a
// map of heap entries with per-entry kid slices, and LRU order as an
// append-only log of touches compacted once stale touches dominate.
// TestPrefixCacheMatchesReference drives both side by side.

// refCache models KV-cache reuse across requests that share a prompt
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
// lookup touches all prefixes of the prompt, and eviction removes the
// least-recently-touched CHAIN — evicting a prefix cascades to its resident
// extensions, so no suffix entry ever outlives (or hides capacity behind)
// an evicted parent. Recency order lives in a lazy-deletion queue: touches
// append, eviction pops from the front skipping entries whose tick is
// stale, and the queue compacts once garbage dominates — amortized O(1) per
// touch regardless of capacity.
type refCache struct {
	capEntries int // entry-count budget (deprecated model); 0 = unbounded
	capTokens  int // live-token budget; 0 = unbounded
	entries    map[uint64]*refEntry
	order      []refEvent // touch events, oldest first; stale ones skipped
	tick       int
	liveTokens int // sum of resident entries' sizes
	// Cumulative memory-pressure statistics (metrics.Serving rollup).
	peakTokens    int // high-water mark of liveTokens
	evictedTokens int // tokens removed by capacity eviction
}

// refEntry is one resident prefix: the token size of its last section,
// its parent prefix key, and its resident extensions. The kids list is
// exact — a child can only be evicted together with its parent chain, so a
// resident entry's kids are always resident (no stale keys, no duplicates).
type refEntry struct {
	parent uint64
	size   int
	tick   int
	kids   []uint64
}

// refEvent is one touch of a prefix key; it is stale when the key has been
// touched again (or evicted) since.
type refEvent struct {
	key  uint64
	tick int
}

// newRefCache builds a cache bounded by entry count and/or live tokens;
// both zero (or negative) disables caching entirely.
func newRefCache(capEntries, capTokens int) *refCache {
	if capEntries <= 0 && capTokens <= 0 {
		return nil
	}
	if capEntries < 0 {
		capEntries = 0
	}
	if capTokens < 0 {
		capTokens = 0
	}
	hint := capEntries
	if hint == 0 {
		hint = 64
	}
	return &refCache{
		capEntries: capEntries,
		capTokens:  capTokens,
		entries:    make(map[uint64]*refEntry, hint),
	}
}

// matchKey reports how many leading tokens of the keyed prompt are covered
// by cached prefixes: sections are matched front-to-back and the chain
// stops at the first miss, mirroring KV-cache prefix reuse.
func (c *refCache) matchKey(k promptKey) int {
	if c == nil {
		return 0
	}
	cached := 0
	for _, s := range k.secs {
		if _, ok := c.entries[s.key]; !ok {
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
func (c *refCache) pressure(k promptKey, cached int) int {
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
func (c *refCache) batchGrowth(keys []promptKey, seen map[uint64]bool) int {
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
			if _, ok := c.entries[s.key]; !ok {
				growth += s.size
			}
		}
	}
	return growth
}

// pressureGrowth converts an insertion's token growth into the warm-token
// displacement the token budget forces (the shared clamp behind pressure
// and batchGrowth-based batch pressure).
func (c *refCache) pressureGrowth(growth int) int {
	if c == nil || c.capTokens <= 0 {
		return 0
	}
	over := c.liveTokens + growth - c.capTokens
	if over <= 0 {
		return 0
	}
	if over > c.liveTokens {
		over = c.liveTokens
	}
	return over
}

// insertKey touches every prefix of the keyed prompt (so the whole prompt
// becomes reusable by followers) and evicts least-recently-touched chains
// beyond capacity.
func (c *refCache) insertKey(k promptKey) {
	if c == nil {
		return
	}
	parent := fnvOffset
	for _, s := range k.secs {
		c.tick++
		e, ok := c.entries[s.key]
		if !ok {
			e = &refEntry{parent: parent, size: s.size}
			c.entries[s.key] = e
			c.liveTokens += s.size
			// The parent is always resident here: the chain is inserted
			// front-to-back, so it was created or touched one iteration ago.
			if pe, pok := c.entries[parent]; pok {
				pe.kids = append(pe.kids, s.key)
			}
		}
		e.tick = c.tick
		c.order = append(c.order, refEvent{key: s.key, tick: c.tick})
		parent = s.key
	}
	c.evictOver()
	// Compact once stale events dominate, keeping memory proportional to
	// the live entry count. Live events already sit in touch order, so
	// filtering preserves LRU order deterministically.
	if len(c.order) > 2*len(c.entries)+64 {
		live := c.order[:0]
		for _, ev := range c.order {
			if e, ok := c.entries[ev.key]; ok && e.tick == ev.tick {
				live = append(live, ev)
			}
		}
		c.order = live
	}
	if c.liveTokens > c.peakTokens {
		c.peakTokens = c.liveTokens
	}
}

// evictOver removes least-recently-touched chains until both budgets hold.
// Each pop evicts the stale-skipped front entry TOGETHER with its resident
// extensions: a suffix is unreachable (matchKey stops at its missing
// parent) yet still holds KV memory, so leaving it behind — the seed's
// orphaned-suffix bug — both leaked capacity and corrupted later matches
// when the parent was re-inserted around a stale suffix.
func (c *refCache) evictOver() {
	for (c.capEntries > 0 && len(c.entries) > c.capEntries) ||
		(c.capTokens > 0 && c.liveTokens > c.capTokens) {
		ev := c.order[0]
		c.order = c.order[1:]
		e, ok := c.entries[ev.key]
		if !ok || e.tick != ev.tick {
			continue // stale event: key evicted or touched since
		}
		// Unlink from the surviving parent so a later re-insert of this
		// chain cannot leave a duplicate kid reference behind.
		if pe, pok := c.entries[e.parent]; pok {
			for i, kid := range pe.kids {
				if kid == ev.key {
					pe.kids[i] = pe.kids[len(pe.kids)-1]
					pe.kids = pe.kids[:len(pe.kids)-1]
					break
				}
			}
		}
		c.evictChain(ev.key, e)
	}
}

// evictChain removes an entry and, recursively, its resident extensions —
// the cascade that keeps every resident key's parent chain resident.
func (c *refCache) evictChain(key uint64, e *refEntry) {
	delete(c.entries, key)
	c.liveTokens -= e.size
	c.evictedTokens += e.size
	for _, kid := range e.kids {
		if ke, ok := c.entries[kid]; ok {
			c.evictChain(kid, ke)
		}
	}
}

// flush empties the cache, pricing every live token as a capacity
// eviction: retiring a replica (autoscale scale-down) destroys its warm KV
// state, and the memory-pressure accounting must see that loss exactly as
// it sees LRU eviction. Peak and cumulative-eviction statistics survive
// the flush; a reactivated replica starts cold but keeps its history.
func (c *refCache) flush() {
	if c == nil {
		return
	}
	c.evictedTokens += c.liveTokens
	c.liveTokens = 0
	clear(c.entries)
	c.order = c.order[:0]
}

// Live/peak/evicted token accounting, rolled up into metrics.Serving by
// Endpoint.Stats.
func (c *refCache) stats() (live, peak, evicted int) {
	if c == nil {
		return 0, 0, 0
	}
	return c.liveTokens, c.peakTokens, c.evictedTokens
}

// lruKeys lists the reference's resident keys from least to most recently
// touched: the live events of its touch log.
func (c *refCache) lruKeys() []uint64 {
	var keys []uint64
	for _, ev := range c.order {
		if e, ok := c.entries[ev.key]; ok && e.tick == ev.tick {
			keys = append(keys, ev.key)
		}
	}
	return keys
}

// TestPrefixCacheMatchesReference drives the slab cache and the reference
// side by side through random insert, match, pressure, batchGrowth, flush
// and reset sequences, at entry caps, token caps and both together, under
// both identity models. After every operation the results, the resident
// keys in LRU order and the live/peak/evicted counters must agree. Each
// configuration must see inserts that evict a prefix which had resident
// extensions (the cascade) and flushes of a non-empty cache, so both paths
// are exercised rather than merely present.
func TestPrefixCacheMatchesReference(t *testing.T) {
	for ci, tc := range []struct {
		name          string
		entries, toks int
		ident         CacheIdentity
	}{
		{"entry-cap", 12, 0, IdentityShape},
		{"tight-entry-cap", 3, 0, IdentityContent},
		{"token-cap", 0, 900, IdentityContent},
		{"tight-token-cap", 0, 600, IdentityShape},
		{"both-caps", 16, 1200, IdentityShape},
		{"both-caps-content", 8, 700, IdentityContent},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(100 + ci)))
			got, want := newPrefixCache(tc.entries, tc.toks), newRefCache(tc.entries, tc.toks)
			seenGot, seenWant := map[uint64]bool{}, map[uint64]bool{}
			cascades, flushes := 0, 0
			for op := 0; op < 3000; op++ {
				keys := make([]promptKey, 1+r.Intn(4))
				for i := range keys {
					keys[i] = chainKeysIdent(nil, randomPrompt(r), tc.ident)
				}
				k := keys[0]
				switch x := r.Intn(100); {
				case x < 50:
					var extended []uint64 // resident prefixes with resident extensions
					for key, e := range want.entries {
						if len(e.kids) > 0 {
							extended = append(extended, key)
						}
					}
					got.insertKey(k)
					want.insertKey(k)
					for _, key := range extended {
						if _, ok := want.entries[key]; !ok {
							cascades++
							break
						}
					}
				case x < 65:
					if g, w := got.matchKey(k), want.matchKey(k); g != w {
						t.Fatalf("op %d: matchKey %d, reference %d", op, g, w)
					}
				case x < 80:
					hit := want.matchKey(k)
					if g, w := got.pressure(k, hit), want.pressure(k, hit); g != w {
						t.Fatalf("op %d: pressure %d, reference %d", op, g, w)
					}
				case x < 98:
					g, w := got.batchGrowth(keys, seenGot), want.batchGrowth(keys, seenWant)
					if g != w || got.pressureGrowth(g) != want.pressureGrowth(w) {
						t.Fatalf("op %d: batchGrowth %d, reference %d", op, g, w)
					}
				case x < 99:
					if len(want.entries) > 0 {
						flushes++
					}
					got.flush()
					want.flush()
				default:
					// reset is flush with the statistics zeroed: a fresh cache.
					got.reset()
					want = newRefCache(tc.entries, tc.toks)
				}
				gl, gp, ge := got.stats()
				wl, wp, we := want.stats()
				if gl != wl || gp != wp || ge != we {
					t.Fatalf("op %d: live/peak/evicted %d/%d/%d, reference %d/%d/%d", op, gl, gp, ge, wl, wp, we)
				}
				if g, w := got.lruKeys(), want.lruKeys(); !slices.Equal(g, w) {
					t.Fatalf("op %d: resident keys in LRU order\n got  %x\n want %x", op, g, w)
				}
				checkCacheInvariants(t, got)
			}
			if cascades == 0 || flushes == 0 {
				t.Fatalf("sequence never exercised a cascade (%d) or a non-empty flush (%d)", cascades, flushes)
			}
			t.Logf("%d cascading inserts, %d non-empty flushes", cascades, flushes)
		})
	}
}
