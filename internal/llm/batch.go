package llm

import (
	"time"

	"embench/internal/prompt"
)

// BatchDecodeSlowdown is the per-extra-sequence decode slowdown when
// batching: decoding n sequences together costs max-decode × (1 + s·(n-1)).
// Real serving stacks see near-linear throughput gains at small batch sizes;
// 0.10 keeps the model conservative. Exported because the shared-endpoint
// simulator (internal/serve) prices its continuous batches with the same
// model.
const BatchDecodeSlowdown = 0.10

// BatchServiceTime is the deterministic service time for a batch of n
// sequences with the given total prompt tokens and longest generation:
// one overhead, back-to-back prefill, joint decode under BatchDecodeSlowdown.
// promptTokens is float64 so callers can price cache-discounted prefill
// (fractional effective tokens). FixedLatency profiles ignore the token
// model, as in Latency.
func (p Profile) BatchServiceTime(n int, promptTokens float64, maxOut int) time.Duration {
	if p.FixedLatency > 0 {
		return p.FixedLatency
	}
	sec := p.Overhead.Seconds()
	if p.PrefillRate > 0 {
		sec += promptTokens / p.PrefillRate
	}
	if p.DecodeRate > 0 && n > 0 {
		slow := 1 + BatchDecodeSlowdown*float64(n-1)
		sec += float64(maxOut) / p.DecodeRate * slow
	}
	return time.Duration(sec * float64(time.Second))
}

// CompleteBatchMulti is step-phase query aggregation across agents (paper
// Rec. 1 end to end): the same-phase queries of several agents — each with
// its own client, RNG stream and virtual clock — are collected into one
// explicit serving batch. reqs[i] is issued on clients[i]; all clients
// must target the same deployment (they share clients[0]'s backend and the
// batch is priced with clients[0]'s profile).
//
// RNG-stream alignment: for every request, the owning client's stream is
// consumed in exactly Complete's order — error draw, jitter draw,
// format-retry draws — so an aggregated run makes the same decisions,
// call for call, as a per-agent run of the same seed. Only the serving
// timeline differs, which is what lets fig9 isolate aggregation against
// join-window batching. On the direct (no-backend) path the jitter draw
// scales the member's batch latency, mirroring Complete; on the backend
// path it is discarded, exactly as Complete's backend path discards it.
//
// Serving: with a BatchBackend attached, the whole phase is submitted as
// one explicit batch (Endpoint.ServeBatch) and each member experiences its
// own completion latency; with a plain Backend the calls are submitted
// back-to-back (degrading to the join window); with no backend the batch
// is priced directly with BatchServiceTime. Format retries resubmit
// individually after the batch completes, exactly as Complete's retries
// do.
func CompleteBatchMulti(clients []*Client, reqs []Request) []Response {
	if len(clients) != len(reqs) {
		panic("llm: CompleteBatchMulti clients/reqs length mismatch")
	}
	n := len(reqs)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []Response{clients[0].Complete(reqs[0])}
	}

	resps := make([]Response, n)
	fitted := make([]prompt.Prompt, n)
	attempts := make([]int, n)
	jitterFactor := make([]float64, n)
	totalPrompt, maxOut := 0, 0
	for i, req := range reqs {
		c := clients[i]
		resps[i], fitted[i] = c.draw(req)
		// Same draw order as Complete: the jitter draw, then the
		// format-retry draws. With a backend attached the jitter factor is
		// discarded (the endpoint's timeline is the latency model, exactly
		// as on Complete's backend path); on the direct path it scales the
		// member's share of the batch latency, so aggregated and per-agent
		// runs stay comparable jitter-for-jitter.
		jitterFactor[i] = 1
		if c.profile.JitterFrac > 0 {
			jitterFactor[i] = c.stream.Jitter(1, c.profile.JitterFrac)
		}
		attempts[i] = c.retryDraws()
		totalPrompt += resps[i].PromptTokens
		if req.OutTokens > maxOut {
			maxOut = req.OutTokens
		}
	}

	// Serving latency per member. decs carries each member's decode-stage
	// share of its FINAL attempt (see Served.Decode) for the async
	// pipeline's overlap credit.
	lats := make([]time.Duration, n)
	decs := make([]time.Duration, n)
	backend := clients[0].backend
	switch {
	case backend != nil:
		calls := make([]Call, n)
		for i := range reqs {
			calls[i] = Call{
				Agent: reqs[i].Agent, Arrival: clients[i].now(),
				Prompt: fitted[i], PromptTokens: resps[i].PromptTokens,
				OutTokens: reqs[i].OutTokens,
			}
		}
		if bb, ok := backend.(BatchBackend); ok {
			for i, s := range bb.ServeBatch(calls) {
				lats[i], decs[i] = s.Latency, s.Decode
			}
		} else {
			for i := range calls {
				s := backend.Serve(calls[i])
				lats[i], decs[i] = s.Latency, s.Decode
			}
		}
		// Retries resubmit individually, after the failed batch attempt;
		// the last retry's decode share wins.
		for i := range reqs {
			for a := 1; a < attempts[i]; a++ {
				s := backend.Serve(Call{
					Agent: reqs[i].Agent, Arrival: clients[i].now() + lats[i],
					Prompt: fitted[i], PromptTokens: resps[i].PromptTokens,
					OutTokens: reqs[i].OutTokens,
				})
				lats[i] += s.Latency
				decs[i] = s.Decode
			}
		}
	default:
		lat := clients[0].batchLatency(n, totalPrompt, maxOut)
		dec0 := lat - clients[0].profile.BatchServiceTime(n, float64(totalPrompt), 0)
		if dec0 < 0 {
			dec0 = 0
		}
		for i := range lats {
			lats[i] = time.Duration(attempts[i]) * time.Duration(float64(lat)*jitterFactor[i])
			decs[i] = time.Duration(float64(dec0) * jitterFactor[i])
		}
	}

	for i := range resps {
		resps[i].Latency = lats[i]
		resps[i].Decode = decs[i]
		resps[i].OutputTokens = attempts[i] * reqs[i].OutTokens
		clients[i].chargeAs(reqs[i], Response{
			Latency:      lats[i],
			PromptTokens: resps[i].PromptTokens,
			OutputTokens: resps[i].OutputTokens,
		}, reqs[i].Kind+"(phase)")
	}
	return resps
}

// batchLatency is the deterministic serving time for a batch.
func (c *Client) batchLatency(n, totalPrompt, maxOut int) time.Duration {
	return c.profile.BatchServiceTime(n, float64(totalPrompt), maxOut)
}

// BatchSpeedup reports the latency ratio sequential/batched for n identical
// calls with the given token counts — the headline gain from Rec. 1.
func BatchSpeedup(p Profile, n, promptTok, outTok int) float64 {
	if n <= 0 {
		return 1
	}
	seq := time.Duration(n) * p.Latency(promptTok, outTok)
	c := Client{profile: p}
	bat := c.batchLatency(n, n*promptTok, outTok)
	if bat == 0 {
		return 1
	}
	return float64(seq) / float64(bat)
}
