package serve

import (
	"time"
)

// admitted is one request's cache-priced admission into a batch: the
// effective (cache-discounted) prefill tokens it pays, and the cached/raw
// token split for statistics.
type admitted struct {
	eff    float64
	cached int
	total  int
}

// discountedEff is THE cache-discount pricing formula: cache-hit tokens
// pay CachedPrefillFrac of their prefill cost. Admission (promptCostOn)
// and routing estimates (estimateCompletion) both price through it.
func (e *Endpoint) discountedEff(cached, total int) float64 {
	return float64(total-cached) + float64(cached)*e.cfg.CachedPrefillFrac
}

// promptCostOn prices a memoized prompt's prefill through one replica's
// prefix cache: returns the effective token count (see discountedEff), the
// cached token count, and the raw total. The prompt's prefixes are
// inserted afterwards so followers on the same replica can reuse it. The
// prefix chain was hashed once, upstream, when the request entered the
// endpoint — routing probes and admission share the same promptKey.
func (e *Endpoint) promptCostOn(r *replica, k promptKey) (eff float64, cached, total int) {
	cached = r.cache.matchKey(k)
	r.cache.insertKey(k)
	return e.discountedEff(cached, k.total), cached, k.total
}

// admitBatch is THE request-admission path: it prices a batch of memoized
// prompts against one replica's prefix cache in admission order and
// returns the batch service time plus per-member pricing. The closed-loop
// new-batch path (Endpoint.launch, which Serve and ServeBatch share) and
// open-loop replay's batch launches both admit through this helper, so a
// given request sequence prices identically whichever path carries it —
// the property the closed-vs-open-loop regression test pins down.
//
// The returned members slice is scratch owned by the endpoint: it is valid
// until the next admission and must not be retained across calls.
func (e *Endpoint) admitBatch(r *replica, keys []promptKey, outs []int) (service time.Duration, members []admitted, totalEff float64, maxOut int) {
	if cap(e.mbuf) < len(keys) {
		e.mbuf = make([]admitted, len(keys))
	}
	members = e.mbuf[:len(keys)]
	r.requests += len(keys)
	for i, k := range keys {
		eff, cached, total := e.promptCostOn(r, k)
		totalEff += eff
		members[i] = admitted{eff: eff, cached: cached, total: total}
		if outs[i] > maxOut {
			maxOut = outs[i]
		}
	}
	service = e.cfg.Profile.BatchServiceTime(len(keys), totalEff, maxOut)
	return service, members, totalEff, maxOut
}
