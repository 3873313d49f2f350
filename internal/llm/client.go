package llm

import (
	"time"

	"embench/internal/prompt"
	"embench/internal/rng"
	"embench/internal/simclock"
	"embench/internal/trace"
)

// Request is one grounded inference query. The oracle decision and its
// plausible corruptions are produced by the environment; the client decides
// which one "the model" returns.
type Request struct {
	Agent  string
	Module trace.Module
	Step   int
	Kind   string // "plan", "message", "reflect", "act-select", ...

	Prompt    prompt.Prompt
	OutTokens int // expected generation length

	Good        any   // the oracle's decision for the caller's belief
	Corruptions []any // plausible wrong decisions (empty = uncorruptible)

	Complexity    float64 // joint-action / task complexity addend
	Staleness     float64 // belief staleness in [0,1]
	ErrorDiscount float64 // multiplies base error (Rec. 4 multiple-choice); 0 means 1
}

// Response is the outcome of a grounded inference query.
type Response struct {
	Decision     any
	Corrupted    bool
	Truncated    bool // prompt exceeded the context window
	Latency      time.Duration
	PromptTokens int
	OutputTokens int
	ErrorP       float64 // the error probability that was applied
	// Decode is the decode-stage share of the FINAL serving attempt (see
	// llm.Served.Decode): the trailing window during which the response
	// was streaming and the agent's next-step preparation could already
	// run. The async pipeline (core.AgentConfig.Pipeline) credits it
	// against the next step's sensing/retrieval charges.
	Decode time.Duration
}

// Client issues grounded queries against one model profile, charging
// simulated latency to a clock and recording trace events. A nil clock or
// tracer is allowed (accounting is skipped), which keeps unit tests small.
type Client struct {
	profile Profile
	stream  *rng.Stream
	clock   *simclock.Clock
	tracer  *trace.Trace
	backend Backend // nil = direct serving from the profile
}

// NewClient returns a client for the given profile. The stream drives both
// latency jitter and the error channel; it must not be shared with other
// consumers if reproducibility across configurations matters.
func NewClient(p Profile, stream *rng.Stream, clock *simclock.Clock, tracer *trace.Trace) *Client {
	return &Client{profile: p, stream: stream, clock: clock, tracer: tracer}
}

// Profile reports the client's serving profile.
func (c *Client) Profile() Profile { return c.profile }

// ErrorProbability computes the error channel's pErr for a query with the
// given characteristics. Exposed for tests and for the calibration bench.
func (c *Client) ErrorProbability(promptTokens int, truncated bool, req Request) float64 {
	discount := req.ErrorDiscount
	if discount <= 0 {
		discount = 1
	}
	p := c.profile.BaseError() * discount
	if c.profile.ContextWindow > 0 {
		d := float64(promptTokens) / float64(c.profile.ContextWindow)
		p += dilutionCoef * d * d
	}
	if truncated {
		p += truncationPen
	}
	p += stalenessCoef * req.Staleness
	p += req.Complexity
	if p < 0 {
		p = 0
	}
	if p > maxError {
		p = maxError
	}
	return p
}

// draw runs the per-request decision pipeline shared by Complete and
// CompleteBatchMulti: fit the prompt to the context window, compute pErr
// and draw the decision from the client's stream. Keeping this in one
// place is what keeps the two serving paths' RNG-stream consumption
// aligned.
func (c *Client) draw(req Request) (Response, prompt.Prompt) {
	fitted := prompt.Fit(req.Prompt, c.contextBudget(req.OutTokens))
	promptTok := fitted.Prompt.Tokens()
	resp := Response{
		PromptTokens: promptTok,
		OutputTokens: req.OutTokens,
		Truncated:    fitted.Truncated,
	}
	resp.ErrorP = c.ErrorProbability(promptTok, fitted.Truncated, req)
	resp.Decision = req.Good
	if len(req.Corruptions) > 0 && c.stream.Bernoulli(resp.ErrorP) {
		resp.Corrupted = true
		resp.Decision = req.Corruptions[c.stream.Pick(len(req.Corruptions))]
	}
	return resp, fitted.Prompt
}

// retryDraws consumes the format-retry draws (malformed generations must
// be regenerated, up to two retries) and returns the attempt count.
func (c *Client) retryDraws() int {
	attempts := 1
	for i := 0; i < 2; i++ {
		if !c.stream.Bernoulli(c.profile.FormatRetryProb) {
			break
		}
		attempts++
	}
	return attempts
}

// Complete runs one grounded query: fit the prompt to the context window,
// draw the error channel, charge serving latency, record the trace event.
func (c *Client) Complete(req Request) Response {
	resp, fitted := c.draw(req)
	served := c.serve(req.Agent, fitted, resp.PromptTokens, req.OutTokens)
	lat := served.Latency
	resp.Decode = served.Decode
	// Each retry attempt pays the full serving latency.
	attempts := c.retryDraws()
	resp.Latency = time.Duration(attempts) * lat
	if c.backend != nil && attempts > 1 {
		// Each retry is a fresh submission to the shared endpoint, issued
		// after the failed attempt completes — it queues again and may land
		// in a different batch. The decode share is the LAST attempt's (the
		// only one whose tail the caller can overlap).
		total := lat
		for a := 1; a < attempts; a++ {
			s := c.backend.Serve(Call{
				Agent: req.Agent, Arrival: c.now() + total,
				Prompt: fitted, PromptTokens: resp.PromptTokens, OutTokens: req.OutTokens,
			})
			total += s.Latency
			resp.Decode = s.Decode
		}
		resp.Latency = total
	}
	resp.OutputTokens = attempts * req.OutTokens
	c.charge(req, resp)
	return resp
}

func (c *Client) contextBudget(outTokens int) int {
	if c.profile.ContextWindow <= 0 {
		return 1 << 30
	}
	b := c.profile.ContextWindow - outTokens
	if b < 0 {
		b = 0
	}
	return b
}

func (c *Client) charge(req Request, resp Response) {
	c.chargeAs(req, resp, req.Kind)
}

// chargeAs is charge with an overridden trace kind (batched/phase-
// aggregated calls annotate their serving mode while keeping the base kind
// as a prefix for breakdowns).
func (c *Client) chargeAs(req Request, resp Response, kind string) {
	if c.clock != nil {
		c.clock.Advance(resp.Latency)
	}
	if c.tracer != nil {
		c.tracer.Record(trace.Event{
			Step:         req.Step,
			Agent:        req.Agent,
			Module:       req.Module,
			Kind:         kind,
			Latency:      resp.Latency,
			PromptTokens: resp.PromptTokens,
			OutputTokens: resp.OutputTokens,
			LLMCall:      true,
		})
	}
}
