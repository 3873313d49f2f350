package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"embench/internal/prompt"
	"embench/internal/serve/obs"
)

// chainKeysInto is chainKeysIdent under the default shape identity.
func chainKeysInto(buf []sectionKey, p prompt.Prompt) promptKey {
	return chainKeysIdent(buf, p, IdentityShape)
}

// chainKeys is chainKeysInto with a fresh backing array.
func chainKeys(p prompt.Prompt) promptKey { return chainKeysInto(nil, p) }

// match is matchKey over an unmemoized prompt.
func (c *prefixCache) match(p prompt.Prompt) int {
	if c == nil {
		return 0
	}
	return c.matchKey(chainKeys(p))
}

// insert is insertKey over an unmemoized prompt.
func (c *prefixCache) insert(p prompt.Prompt) {
	if c == nil {
		return
	}
	c.insertKey(chainKeys(p))
}

// checkCacheInvariants asserts the structural contract of the prefix cache:
//
//  1. parent-chain residency — no suffix entry outlives its prefix (the
//     orphaned-suffix regression),
//  2. token accounting — liveTokens is exactly the sum of resident entry
//     sizes and never exceeds the token budget,
//  3. entry accounting — the entry count never exceeds the entry budget,
//  4. kid links — every resident entry's kid list names exactly its
//     resident children, with no stale slots, duplicates or broken
//     back links,
//  5. LRU list — positions are strictly ordered head→tail (every newer
//     link mirrors an older link), and the list holds exactly the
//     resident entries.
func checkCacheInvariants(t *testing.T, c *prefixCache) {
	t.Helper()
	if c == nil {
		return
	}
	tokens := 0
	kids := map[int32]int{} // resident slot → parents linking it
	for key, i := range c.index {
		e := &c.slab[i]
		if e.key != key {
			t.Fatalf("index maps %x to slot %d holding %x", key, i, e.key)
		}
		tokens += e.size
		if e.parent != noSlot {
			if got, ok := c.index[c.slab[e.parent].key]; !ok || got != e.parent {
				t.Fatalf("orphaned suffix: entry %x resident but parent slot %d evicted", key, e.parent)
			}
		}
		prev := noSlot
		for kid := e.kid; kid != noSlot; kid = c.slab[kid].next {
			ke := &c.slab[kid]
			if got, ok := c.index[ke.key]; !ok || got != kid {
				t.Fatalf("stale kid link %d under %x", kid, key)
			}
			if ke.parent != i {
				t.Fatalf("kid %x of %x points at parent slot %d", ke.key, key, ke.parent)
			}
			if ke.prev != prev {
				t.Fatalf("kid %x of %x has prev %d, want %d", ke.key, key, ke.prev, prev)
			}
			if kids[kid]++; kids[kid] > 1 {
				t.Fatalf("duplicate kid link %x under %x", ke.key, key)
			}
			prev = kid
		}
	}
	// Reverse check: every resident child is linked from its parent.
	for key, i := range c.index {
		if c.slab[i].parent != noSlot && kids[i] != 1 {
			t.Fatalf("entry %x resident but unlinked from its parent", key)
		}
		if e := &c.slab[i]; e.parent == noSlot && (e.prev != noSlot || e.next != noSlot) {
			t.Fatalf("root entry %x has sibling links", key)
		}
	}
	if tokens != c.liveTokens {
		t.Fatalf("liveTokens drifted: tracked %d, recount %d", c.liveTokens, tokens)
	}
	if c.capTokens > 0 && c.liveTokens > c.capTokens {
		t.Fatalf("live tokens %d exceed budget %d", c.liveTokens, c.capTokens)
	}
	if c.capEntries > 0 && len(c.index) > c.capEntries {
		t.Fatalf("entry count %d exceeds budget %d", len(c.index), c.capEntries)
	}
	if c.liveTokens > c.peakTokens {
		t.Fatalf("peak %d below live %d", c.peakTokens, c.liveTokens)
	}
	listed, newer := 0, noSlot
	for i := c.head; i != noSlot; i = c.slab[i].older {
		if c.slab[i].newer != newer {
			t.Fatalf("LRU slot %d: newer link %d, want %d", i, c.slab[i].newer, newer)
		}
		if got, ok := c.index[c.slab[i].key]; !ok || got != i {
			t.Fatalf("LRU list holds non-resident slot %d", i)
		}
		if listed++; listed > len(c.index) {
			t.Fatal("LRU list longer than the resident set (cycle or stale slot)")
		}
		newer = i
	}
	if newer != c.tail || listed != len(c.index) {
		t.Fatalf("LRU list: %d slots ending at %d, want %d ending at tail %d", listed, newer, len(c.index), c.tail)
	}
}

// lruKeys lists the resident keys from least to most recently touched.
func (c *prefixCache) lruKeys() []uint64 {
	var keys []uint64
	for i := c.tail; i != noSlot; i = c.slab[i].newer {
		keys = append(keys, c.slab[i].key)
	}
	return keys
}

// TestCacheOrphanedSuffixRegression reproduces the seed bug directly:
// evict a chain's root and the extension must go with it — not survive as
// unreachable ballast that still counts against capacity.
func TestCacheOrphanedSuffixRegression(t *testing.T) {
	c := newPrefixCache(3, 0)
	chain := prompt.New(
		prompt.Section{Name: "system", Tokens: 100},
		prompt.Section{Name: "hist", Tokens: 50},
	)
	c.insert(chain)
	if len(c.index) != 2 {
		t.Fatalf("chain should occupy 2 entries, got %d", len(c.index))
	}
	// Two fresh single-section prompts: capacity 3 forces eviction of the
	// oldest entry — the chain's "system" root (tick 1; "hist" is tick 2).
	c.insert(prompt.New(prompt.Section{Name: "a", Tokens: 10}))
	c.insert(prompt.New(prompt.Section{Name: "b", Tokens: 10}))
	if got := c.match(chain); got != 0 {
		t.Fatalf("chain root evicted but match still covers %d tokens", got)
	}
	for key, i := range c.index {
		if c.slab[i].parent != noSlot {
			t.Fatalf("suffix %x outlived its prefix — the seed bug", key)
		}
	}
	// The seed evicted only the root, keeping the unreachable "hist"
	// suffix resident: {hist, a, b} with one entry of dead capacity. The
	// cascade removes the whole chain, leaving the two reachable roots.
	if len(c.index) != 2 {
		t.Fatalf("resident entries = %d, want the 2 reachable roots", len(c.index))
	}
	checkCacheInvariants(t, c)
}

// randomPrompt builds a randomized section chain that shares prefixes with
// other draws often: a fixed preamble, one of a few personas, one of many
// history sizes — plus occasional deep chains.
func randomPrompt(r *rand.Rand) prompt.Prompt {
	secs := []prompt.Section{
		{Name: "system", Tokens: 100 + 50*r.Intn(2)},
		{Name: fmt.Sprintf("persona-%d", r.Intn(6)), Tokens: 200 + 100*r.Intn(3)},
	}
	depth := 1 + r.Intn(3)
	for d := 0; d < depth; d++ {
		secs = append(secs, prompt.Section{
			Name:   fmt.Sprintf("hist%d", d),
			Tokens: 20 + 10*r.Intn(8),
		})
	}
	return prompt.New(secs...)
}

// TestCacheRandomizedCapacityAccounting drives randomized insert/match
// sequences through token-budget, entry-budget and dual-budget caches and
// checks every structural invariant after each insert — the satellite's
// "live cached tokens never exceed budget across randomized insert/evict
// sequences".
func TestCacheRandomizedCapacityAccounting(t *testing.T) {
	configs := []struct {
		name               string
		capEntries, capTok int
	}{
		{"token-budget", 0, 900},
		{"entry-budget", 12, 0},
		{"both-budgets", 16, 1200},
		{"tight-tokens", 0, 300},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			c := newPrefixCache(cfg.capEntries, cfg.capTok)
			for i := 0; i < 2000; i++ {
				p := randomPrompt(r)
				c.match(p)
				c.insert(p)
				checkCacheInvariants(t, c)
			}
			if c.evictedTokens == 0 {
				t.Fatal("workload never hit capacity; budget too loose to test eviction")
			}
		})
	}
}

// TestCacheCompactionPreservesLRUOrder hammers one hot chain after a row
// of cold singletons (500 touches of one entry), then checks eviction
// still removes the honestly least-recently-touched entry first. (The name
// predates the recency list, which has nothing to compact.)
func TestCacheCompactionPreservesLRUOrder(t *testing.T) {
	c := newPrefixCache(0, 1000)
	hot := prompt.New(prompt.Section{Name: "hot", Tokens: 100})
	cold := make([]prompt.Prompt, 8)
	for i := range cold {
		cold[i] = prompt.New(prompt.Section{Name: fmt.Sprintf("cold-%d", i), Tokens: 100})
	}
	for _, p := range cold {
		c.insert(p)
	}
	for i := 0; i < 500; i++ {
		c.insert(hot)
	}
	checkCacheInvariants(t, c)
	// 8 cold (800 tokens) + hot (100) = 900 live. A 150-token insert must
	// evict exactly the oldest cold entry, not the hot one and not a newer
	// cold one.
	c.insert(prompt.New(prompt.Section{Name: "newcomer", Tokens: 150}))
	if c.match(cold[0]) != 0 {
		t.Fatal("oldest cold entry should have been evicted first")
	}
	for _, p := range cold[2:] {
		if c.match(p) == 0 {
			t.Fatal("newer cold entries evicted before the oldest")
		}
	}
	if c.match(hot) == 0 {
		t.Fatal("hot entry evicted despite being most recently touched")
	}
	checkCacheInvariants(t, c)
}

// TestCacheIdentityAgreement: on prompts whose sections carry only token
// counts (no text), shape and content identity must produce identical
// match results over any shared operation sequence.
func TestCacheIdentityAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	shape := newPrefixCache(0, 1500)
	content := newPrefixCache(0, 1500)
	for i := 0; i < 1500; i++ {
		p := randomPrompt(r)
		ks := chainKeysIdent(nil, p, IdentityShape)
		kc := chainKeysIdent(nil, p, IdentityContent)
		if ms, mc := shape.matchKey(ks), content.matchKey(kc); ms != mc {
			t.Fatalf("op %d: shape match %d != content match %d", i, ms, mc)
		}
		shape.insertKey(ks)
		content.insertKey(kc)
		if shape.liveTokens != content.liveTokens || len(shape.index) != len(content.index) {
			t.Fatalf("op %d: caches diverged: %d/%d tokens, %d/%d entries",
				i, shape.liveTokens, content.liveTokens, len(shape.index), len(content.index))
		}
	}
	checkCacheInvariants(t, shape)
	checkCacheInvariants(t, content)
}

// TestCacheContentIdentityDistinguishesText: same shape, different words —
// shape identity falsely hits, content identity does not; and a history
// that diverges then reconverges to identical text re-shares under content
// identity even though intermediate sizes drifted.
func TestCacheContentIdentityDistinguishesText(t *testing.T) {
	mk := func(text string) prompt.Prompt {
		return prompt.New(
			prompt.Section{Name: "system", Tokens: 100},
			prompt.Section{Name: "hist", Text: text},
		)
	}
	aliceP := mk("alice moved the red block onto the shelf")
	bobP := mk("bobby picked an apple up from the table")
	if aliceP.Tokens() != bobP.Tokens() {
		t.Fatalf("test needs same-shape prompts: %d vs %d tokens", aliceP.Tokens(), bobP.Tokens())
	}

	shape := newPrefixCache(0, 4096)
	shape.insertKey(chainKeysIdent(nil, aliceP, IdentityShape))
	if got := shape.matchKey(chainKeysIdent(nil, bobP, IdentityShape)); got != bobP.Tokens() {
		t.Fatalf("shape identity should falsely hit the same-shape prompt (got %d)", got)
	}

	content := newPrefixCache(0, 4096)
	content.insertKey(chainKeysIdent(nil, aliceP, IdentityContent))
	if got := content.matchKey(chainKeysIdent(nil, bobP, IdentityContent)); got != 100 {
		t.Fatalf("content identity must stop at the diverged text (got %d, want 100)", got)
	}
	// Reconvergence: an identical-text follower re-shares the full chain.
	if got := content.matchKey(chainKeysIdent(nil, mk("alice moved the red block onto the shelf"), IdentityContent)); got != aliceP.Tokens() {
		t.Fatalf("content identity must re-share reconverged text (got %d, want %d)", got, aliceP.Tokens())
	}
}

// TestCachePressure pins the capacity-pressure signal routing charges: zero
// without a token budget, zero under budget, the overflow when over, and
// never more than what is actually resident.
func TestCachePressure(t *testing.T) {
	p := prompt.New(prompt.Section{Name: "s", Tokens: 400})
	k := chainKeys(p)

	entryOnly := newPrefixCache(64, 0)
	if got := entryOnly.pressure(k, 0); got != 0 {
		t.Fatalf("entry-count cache must report zero pressure, got %d", got)
	}

	c := newPrefixCache(0, 1000)
	if got := c.pressure(k, 0); got != 0 {
		t.Fatalf("empty cache under budget: pressure %d, want 0", got)
	}
	c.insert(prompt.New(prompt.Section{Name: "warm", Tokens: 700}))
	// 700 live + 400 incoming - 1000 budget = 100 warm tokens displaced.
	if got := c.pressure(k, 0); got != 100 {
		t.Fatalf("pressure = %d, want 100", got)
	}
	// A fully cached prompt adds nothing and displaces nothing.
	kw := chainKeys(prompt.New(prompt.Section{Name: "warm", Tokens: 700}))
	if got := c.pressure(kw, 700); got != 0 {
		t.Fatalf("warm re-insert pressure = %d, want 0", got)
	}
	// Overflow beyond everything resident clamps at the resident total.
	huge := chainKeys(prompt.New(prompt.Section{Name: "huge", Tokens: 10000}))
	if got := c.pressure(huge, 0); got != 700 {
		t.Fatalf("pressure clamp = %d, want 700 (all resident tokens)", got)
	}
}

// TestCacheTokenBudgetEvictsDeadHistory: old history leaves (sizes that
// will never recur) are the oldest entries, so a token budget self-cleans
// them while the shared preamble and persona stay warm.
func TestCacheTokenBudgetEvictsDeadHistory(t *testing.T) {
	c := newPrefixCache(0, 1500)
	mk := func(hist int) prompt.Prompt {
		return prompt.New(
			prompt.Section{Name: "system", Tokens: 300},
			prompt.Section{Name: "persona", Tokens: 500},
			prompt.Section{Name: "hist", Tokens: hist},
		)
	}
	for s := 0; s < 20; s++ {
		c.insert(mk(100 + 10*s))
		checkCacheInvariants(t, c)
	}
	last := mk(100 + 10*19)
	if got := c.match(last); got != last.Tokens() {
		t.Fatalf("latest chain should be fully resident, got %d of %d", got, last.Tokens())
	}
	if got := c.match(mk(100)); got != 800 {
		t.Fatalf("dead history leaf should be evicted, preamble+persona warm: got %d, want 800", got)
	}
	if c.evictedTokens == 0 {
		t.Fatal("budget never evicted anything")
	}
}

// TestReplayChainMemo pins replay's per-prompt chain memo: a replay whose
// requests share Sections arrays — whole, and as sub-slices of one array
// that start at different offsets or differ only in length — must equal,
// result and recorded stream alike, the same replay over deep-copied
// sections, where every request hashes its own chain. Run under both
// identity models, monolithic and disaggregated.
func TestReplayChainMemo(t *testing.T) {
	arr := []prompt.Section{
		{Name: "system", Tokens: 300},
		{Name: "task", Text: "stack the red block on the blue one"},
		{Name: "persona", Tokens: 200},
		{Name: "hist", Text: "moved red block; picked blue block up", Droppable: true},
		{Name: "obs", Tokens: 40, Droppable: true},
	}
	other := []prompt.Section{{Name: "system", Tokens: 300}, {Name: "task", Tokens: 90}}
	views := [][]prompt.Section{arr, arr[:3], arr[:5], arr[:4], arr[1:4], arr[1:], other, arr[:1], nil}
	var shared []Request
	for i := 0; i < 96; i++ {
		shared = append(shared, Request{
			Agent:     fmt.Sprintf("a%d", i%5),
			Arrival:   time.Duration(i/3) * 700 * time.Millisecond,
			Priority:  i % 2,
			Prompt:    prompt.Prompt{Sections: views[i*7%len(views)]},
			OutTokens: 20 + i%4*10,
		})
	}
	copied := slices.Clone(shared)
	for i := range copied {
		copied[i].Prompt.Sections = slices.Clone(copied[i].Prompt.Sections)
	}
	for _, ident := range []CacheIdentity{IdentityShape, IdentityContent} {
		for _, cfg := range []Config{
			{Profile: noJitter, Replicas: 2, MaxBatch: 4, MaxWait: time.Second, CacheTokens: 900, Identity: ident},
			{Profile: noJitter, CacheTokens: 700, Identity: ident,
				Prefill: PoolConfig{Replicas: 2, MaxBatch: 4, MaxWait: time.Second},
				Decode:  PoolConfig{Replicas: 2, MaxBatch: 4, MaxWait: time.Second},
				Handoff: Handoff{Latency: 40 * time.Millisecond, TokensPerSec: 200000}},
		} {
			name := fmt.Sprintf("%s/disagg=%v", ident, cfg.Disaggregated())
			recShared, recCopied := obs.NewRecorder(), obs.NewRecorder()
			got, want := ReplayObserved(cfg, shared, recShared), ReplayObserved(cfg, copied, recCopied)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: replay over shared sections differs from deep-copied sections", name)
			}
			if !reflect.DeepEqual(recShared.Events(), recCopied.Events()) {
				t.Fatalf("%s: recorded streams differ", name)
			}
			if got.Stats.CachedTokens == 0 || got.Stats.EvictedTokens == 0 {
				t.Fatalf("%s: cache never hit (%d) or evicted (%d)", name, got.Stats.CachedTokens, got.Stats.EvictedTokens)
			}
		}
	}
}

// TestPrefixCacheSteadyStateAllocs: once the slab has grown to the
// resident high-water mark, inserting — touches, new entries into freed
// slots, cascading evictions — allocates nothing.
func TestPrefixCacheSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	keys := make([]promptKey, 256)
	for i := range keys {
		keys[i] = chainKeys(randomPrompt(r))
	}
	c := newPrefixCache(16, 1200)
	for _, k := range keys {
		c.insertKey(k)
	}
	i := 0
	allocs := testing.AllocsPerRun(5000, func() {
		c.insertKey(keys[i%len(keys)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm insertKey allocates %.2f objects per call, want 0", allocs)
	}
	if c.evictedTokens == 0 {
		t.Fatal("workload never evicted; the free list went unexercised")
	}
}
