package core

import (
	"fmt"
	"testing"

	"embench/internal/llm"
	"embench/internal/modules/execution"
	"embench/internal/modules/memory"
	"embench/internal/modules/sensing"
	"embench/internal/prompt"
	"embench/internal/rng"
	"embench/internal/simclock"
	"embench/internal/trace"
)

// stubGoal is a trivial subgoal.
type stubGoal struct{ name string }

func (s stubGoal) ID() string       { return s.name }
func (s stubGoal) Describe() string { return "do " + s.name }

// stubDomain is a minimal, scriptable Domain for unit-testing the agent
// pipeline: a counter task where the oracle always proposes "advance" and
// corrupted decisions are "wrong" (which fail on execution).
type stubDomain struct {
	step        int
	progress    int
	target      int
	horizon     int
	agents      int
	staleness   float64
	execFail    bool // force execution failures
	corrections int
	claims      int
}

func newStub() *stubDomain { return &stubDomain{target: 5, horizon: 20, agents: 1} }

func (d *stubDomain) Name() string      { return "stub" }
func (d *stubDomain) Agents() int       { return d.agents }
func (d *stubDomain) MaxSteps() int     { return d.horizon }
func (d *stubDomain) Step() int         { return d.step }
func (d *stubDomain) Done() bool        { return d.Success() || d.step >= d.horizon }
func (d *stubDomain) Success() bool     { return d.progress >= d.target }
func (d *stubDomain) Progress() float64 { return float64(d.progress) / float64(d.target) }
func (d *stubDomain) Tick()             { d.step++ }

func (d *stubDomain) StaticRecords() []memory.Record {
	return []memory.Record{{Key: "map", Payload: "layout", Tokens: 20, Static: true}}
}

func (d *stubDomain) Observe(agent int) Observation {
	rec := memory.Record{
		Step: d.step, Kind: memory.Observation, Key: "progress",
		Payload: d.progress, Tokens: 10,
	}
	return Observation{Records: []memory.Record{rec}, Entities: 1, Tokens: 10}
}

func (d *stubDomain) BuildBelief(agent int, recs []memory.Record) Belief {
	return Belief{Payload: len(recs), Staleness: d.staleness}
}

func (d *stubDomain) Propose(agent int, b Belief) Proposal {
	return Proposal{
		Good:        stubGoal{"advance"},
		Corruptions: []Subgoal{stubGoal{"wrong"}},
	}
}

func (d *stubDomain) Execute(agent int, g Subgoal) execution.Result {
	if d.execFail || g.ID() != "advance" {
		return execution.Result{Note: "failed", Effort: execution.Effort{Primitives: 1}}
	}
	d.progress++
	return execution.Result{Achieved: true, Effort: execution.Effort{Primitives: 1}}
}

func (d *stubDomain) ClaimRecord(agent int, g Subgoal) (memory.Record, bool) {
	d.claims++
	return memory.Record{Key: fmt.Sprintf("claim:%d", agent), Payload: g.ID(), Tokens: 4}, true
}

func (d *stubDomain) CorrectionRecords(agent int, g Subgoal, res execution.Result) []memory.Record {
	d.corrections++
	return []memory.Record{{Key: "corrected:" + g.ID(), Payload: true, Tokens: 4}}
}

var (
	_ Domain    = (*stubDomain)(nil)
	_ Claimer   = (*stubDomain)(nil)
	_ Corrector = (*stubDomain)(nil)
)

func perfectPlanner() llm.Profile {
	p := llm.GPT4
	p.Capability = 1
	p.JitterFrac = 0
	return p
}

func newTestAgent(t *testing.T, cfg AgentConfig) (*Agent, *simclock.Clock, *trace.Trace) {
	t.Helper()
	clock := simclock.New()
	tr := trace.New()
	return NewAgent(0, cfg, rng.New(7), clock, tr), clock, tr
}

func TestConfigDefaults(t *testing.T) {
	cfg := AgentConfig{Planner: llm.GPT4}.withDefaults()
	if cfg.SystemTokens != 220 || cfg.TaskTokens != 90 {
		t.Fatalf("prompt defaults wrong: %d/%d", cfg.SystemTokens, cfg.TaskTokens)
	}
	if cfg.PlanHorizon != 1 || cfg.PlanOutTokens != 140 {
		t.Fatalf("plan defaults wrong: %d/%d", cfg.PlanHorizon, cfg.PlanOutTokens)
	}
	dual := AgentConfig{Planner: llm.GPT4, Memory: MemoryConfig{Dual: true}}.withDefaults()
	if dual.Memory.ShortWindow != 6 || dual.Memory.LongBudget != 160 {
		t.Fatalf("dual defaults wrong: %+v", dual.Memory)
	}
}

func TestComplexityOrdering(t *testing.T) {
	if CentralizedComplexity(1) != 0 || DecentralizedComplexity(1) != 0 {
		t.Fatal("solo teams have no joint complexity")
	}
	for n := 2; n <= 12; n++ {
		if CentralizedComplexity(n) <= DecentralizedComplexity(n) {
			t.Fatalf("central complexity should dominate at n=%d", n)
		}
	}
	if CentralizedComplexity(12) <= CentralizedComplexity(4) {
		t.Fatal("complexity should grow with team size")
	}
}

func TestJointID(t *testing.T) {
	j := &Joint{Assign: map[int]Subgoal{0: stubGoal{"a"}, 1: nil}}
	id := j.ID()
	if id != "joint|a|idle" {
		t.Fatalf("Joint ID = %q", id)
	}
	if j.Describe() != id {
		t.Fatal("Describe should mirror ID")
	}
}

func TestAgentSenseChargesLatencyAndTrace(t *testing.T) {
	b := sensing.MaskRCNN
	a, clock, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Sensing: &b, Execution: true})
	d := newStub()
	obs := a.Sense(d, 0)
	if clock.Now() <= 0 {
		t.Fatal("sensing charged no latency")
	}
	if len(tr.Events) != 1 || tr.Events[0].Module != trace.Sensing {
		t.Fatalf("trace = %+v", tr.Events)
	}
	if len(obs.Records) > 1 {
		t.Fatal("stub emits one record")
	}
}

func TestAgentSenseNilBackendFree(t *testing.T) {
	a, clock, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	a.Sense(newStub(), 0)
	if clock.Now() != 0 || len(tr.Events) != 0 {
		t.Fatal("nil sensing backend should cost nothing")
	}
}

func TestAgentSenseDropsMissedEntities(t *testing.T) {
	lossy := sensing.Backend{Name: "lossy", Base: 1, MissProb: 1}
	a, _, _ := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Sensing: &lossy, Execution: true})
	obs := a.Sense(newStub(), 0)
	if len(obs.Records) != 0 {
		t.Fatal("MissProb=1 should drop all non-static records")
	}
}

func TestAgentRetrieveChargesMemoryModule(t *testing.T) {
	a, clock, tr := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Memory: MemoryConfig{Capacity: 8}, Execution: true,
	})
	a.Store.Add(memory.Record{Step: 0, Key: "x", Tokens: 5})
	ret := a.Retrieve(0)
	if len(ret.Records) != 1 {
		t.Fatalf("retrieved %d records", len(ret.Records))
	}
	if clock.Now() == 0 || len(tr.Events) != 1 || tr.Events[0].Module != trace.Memory {
		t.Fatal("retrieval accounting missing")
	}
}

func TestAgentRetrieveDisabledMemory(t *testing.T) {
	a, clock, _ := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	ret := a.Retrieve(0)
	if len(ret.Records) != 0 || clock.Now() != 0 {
		t.Fatal("disabled memory should be free and empty")
	}
}

func TestAgentPlanProducesOracleDecision(t *testing.T) {
	a, _, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	d := newStub()
	pr := a.Plan(d, 0, memory.Retrieval{}, d.Observe(0), nil)
	if !pr.UsedLLM || pr.Subgoal == nil || pr.Subgoal.ID() != "advance" {
		t.Fatalf("plan = %+v", pr)
	}
	found := false
	for _, ev := range tr.Events {
		if ev.Module == trace.Planning && ev.LLMCall {
			found = true
		}
	}
	if !found {
		t.Fatal("no planning LLM event")
	}
}

func TestAgentPlanHorizonSkipsLLM(t *testing.T) {
	a, _, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true, PlanHorizon: 3})
	d := newStub()
	calls := func() int {
		n := 0
		for _, ev := range tr.Events {
			if ev.Module == trace.Planning && ev.LLMCall {
				n++
			}
		}
		return n
	}
	for step := 0; step < 6; step++ {
		pr := a.Plan(d, step, memory.Retrieval{}, d.Observe(0), nil)
		if pr.Subgoal == nil {
			t.Fatal("nil subgoal under plan horizon")
		}
	}
	if got := calls(); got != 2 {
		t.Fatalf("planning LLM calls = %d, want 2 (one per 3 steps)", got)
	}
}

func TestAgentActSelectAddsExecutionLLM(t *testing.T) {
	a, _, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true, ActSelect: true})
	d := newStub()
	a.Plan(d, 0, memory.Retrieval{}, d.Observe(0), nil)
	found := false
	for _, ev := range tr.Events {
		if ev.Module == trace.Execution && ev.Kind == "act-select" && ev.LLMCall {
			found = true
		}
	}
	if !found {
		t.Fatal("act-select call missing")
	}
}

func TestAgentExecuteChargesEffort(t *testing.T) {
	a, clock, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	d := newStub()
	res := a.Execute(d, 0, PlanResult{Subgoal: stubGoal{"advance"}})
	if !res.Achieved || d.progress != 1 {
		t.Fatalf("execute failed: %+v", res)
	}
	if clock.Now() == 0 {
		t.Fatal("execution latency not charged")
	}
	if tr.Events[len(tr.Events)-1].Module != trace.Execution {
		t.Fatal("execution event missing")
	}
}

func TestAgentExecuteNilSubgoal(t *testing.T) {
	a, _, _ := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	if a.Execute(newStub(), 0, PlanResult{}).Achieved {
		t.Fatal("nil subgoal should not achieve")
	}
}

func TestAgentExecuteWithoutModuleEmitsPrimitives(t *testing.T) {
	a, _, tr := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: false})
	d := newStub()
	a.Execute(d, 0, PlanResult{
		Subgoal:  stubGoal{"advance"},
		Proposal: Proposal{Good: stubGoal{"advance"}, Corruptions: []Subgoal{stubGoal{"wrong"}}},
	})
	prims := 0
	for _, ev := range tr.Events {
		if ev.Kind == "primitive" && ev.LLMCall {
			prims++
		}
	}
	if prims != primitiveCalls {
		t.Fatalf("primitive LLM calls = %d, want %d", prims, primitiveCalls)
	}
}

func TestReflectionCorrectsAndUnsticks(t *testing.T) {
	refl := perfectPlanner()
	a, _, _ := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Reflector: &refl,
		Memory: MemoryConfig{Capacity: 8}, Execution: true,
	})
	d := newStub()
	pr := PlanResult{Subgoal: stubGoal{"wrong"}, Corrupted: true}
	res := execution.Result{Achieved: false}
	a.Reflect(d, 0, pr, res)
	if a.lastFailed != nil {
		t.Fatal("reflection should clear the failure loop")
	}
	if d.corrections != 1 {
		t.Fatalf("corrections = %d, want 1", d.corrections)
	}
	ret := a.Store.Retrieve(0)
	foundCorrection := false
	for _, r := range ret.Records {
		if r.Key == "corrected:wrong" {
			foundCorrection = true
		}
	}
	if !foundCorrection {
		t.Fatal("correction record not stored")
	}
}

func TestNoReflectionSticksOnFailure(t *testing.T) {
	a, _, _ := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	d := newStub()
	pr := PlanResult{Subgoal: stubGoal{"wrong"}, Corrupted: true}
	a.Reflect(d, 0, pr, execution.Result{Achieved: false})
	if a.lastFailed == nil || a.lastFailed.ID() != "wrong" {
		t.Fatal("failure should stick without reflection")
	}
	// Success clears it.
	a.Reflect(d, 1, PlanResult{Subgoal: stubGoal{"advance"}}, execution.Result{Achieved: true})
	if a.lastFailed != nil {
		t.Fatal("success should clear the loop")
	}
}

func TestPersistenceLoopRepeatsFailedPlan(t *testing.T) {
	// Without reflection, after a failure the next plans frequently repeat
	// the failed subgoal.
	a, _, _ := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	d := newStub()
	a.lastFailed = stubGoal{"wrong"}
	repeats := 0
	const n = 200
	for i := 0; i < n; i++ {
		pr := a.Plan(d, i, memory.Retrieval{}, d.Observe(0), nil)
		if pr.Subgoal.ID() == "wrong" {
			repeats++
		}
		a.lastFailed = stubGoal{"wrong"} // re-arm
	}
	rate := float64(repeats) / n
	if rate < persistProb-0.1 || rate > persistProb+0.1 {
		t.Fatalf("persistence rate = %.2f, want ≈%.2f", rate, persistProb)
	}
}

func TestComposeMessageSharesFirsthandOnly(t *testing.T) {
	comm := perfectPlanner()
	a, _, _ := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Comms: &comm,
		Memory: MemoryConfig{Capacity: 8}, Execution: true,
	})
	a.Store.Add(memory.Record{Step: 0, Kind: memory.Observation, Key: "obj:1", Tokens: 5})
	a.Store.Add(memory.Record{Step: 0, Kind: memory.Dialogue, Key: "obj:2", Tokens: 5})
	msg, ok := a.ComposeMessage(0, Observation{}, 0)
	if !ok {
		t.Fatal("no message composed")
	}
	for _, r := range msg.Records {
		if r.Key == "obj:2" {
			t.Fatal("received dialogue must not be re-broadcast")
		}
	}
	if len(msg.Records) != 1 {
		t.Fatalf("message records = %d, want 1 firsthand", len(msg.Records))
	}
}

func TestComposeMessageWithoutComms(t *testing.T) {
	a, _, _ := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	if _, ok := a.ComposeMessage(0, Observation{}, 0); ok {
		t.Fatal("agent without comms module composed a message")
	}
}

func TestRememberStoresActionAndClaim(t *testing.T) {
	a, _, _ := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Memory: MemoryConfig{Capacity: 8}, Execution: true,
	})
	d := newStub()
	pr := PlanResult{Subgoal: stubGoal{"advance"}}
	a.Remember(d, 0, d.Observe(0), nil, pr, execution.Result{Achieved: true})
	ret := a.Store.Retrieve(0)
	var hasAct, hasClaim, hasObs bool
	for _, r := range ret.Records {
		switch {
		case r.Key == "act:0":
			hasAct = true
		case r.Key == "claim:0":
			hasClaim = true
		case r.Key == "progress":
			hasObs = true
		}
	}
	if !hasAct || !hasClaim || !hasObs {
		t.Fatalf("memory after Remember missing records: act=%v claim=%v obs=%v", hasAct, hasClaim, hasObs)
	}
	if d.claims != 1 {
		t.Fatal("claim hook not invoked")
	}
}

func TestResetClearsEpisodeState(t *testing.T) {
	a, _, _ := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Memory: MemoryConfig{Capacity: 8}, Execution: true,
	})
	a.Store.Add(memory.Record{Step: 0, Key: "x", Tokens: 1})
	a.lastFailed = stubGoal{"wrong"}
	a.planCooldown = 2
	a.Reset()
	if len(a.Store.Retrieve(0).Records) != 0 || a.lastFailed != nil || a.planCooldown != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestMarkMessageUseful(t *testing.T) {
	comm := perfectPlanner()
	a, _, tr := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Comms: &comm,
		Memory: MemoryConfig{Capacity: 8}, Execution: true,
	})
	a.Store.Add(memory.Record{Step: 0, Kind: memory.Observation, Key: "obj:1", Tokens: 5})
	a.ComposeMessage(0, Observation{}, 0)
	a.MarkMessageUseful(0, true)
	stats := tr.Messages()
	if stats.Generated != 1 || stats.Useful != 1 {
		t.Fatalf("message stats = %+v", stats)
	}
}

func TestMultipleChoiceReducesOutputTokens(t *testing.T) {
	free, _, trFree := newTestAgent(t, AgentConfig{Planner: perfectPlanner(), Execution: true})
	d := newStub()
	free.Plan(d, 0, memory.Retrieval{}, d.Observe(0), nil)

	mc, _, trMC := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Execution: true,
		MultipleChoice: &prompt.MultipleChoice{Options: 4, ErrorDiscount: 0.45},
	})
	mc.Plan(d, 0, memory.Retrieval{}, d.Observe(0), nil)

	planOut := func(tr *trace.Trace) (out, in int) {
		for _, ev := range tr.Events {
			if ev.Module == trace.Planning {
				return ev.OutputTokens, ev.PromptTokens
			}
		}
		return 0, 0
	}
	freeOut, freeIn := planOut(trFree)
	mcOut, mcIn := planOut(trMC)
	if freeOut != 140 {
		t.Fatalf("free-form plan output = %d, want 140", freeOut)
	}
	if mcOut >= freeOut {
		t.Fatalf("multiple choice should shrink output: %d vs %d", mcOut, freeOut)
	}
	if mcIn <= freeIn {
		t.Fatalf("multiple choice should enlarge prompt (option list): %d vs %d", mcIn, freeIn)
	}
}

var beliefSink []memory.Record

// TestBeliefAssemblyAllocationFree: once the agent's belief buffer has
// grown, merging retrieval, observation and extra records allocates
// nothing, and the merge keeps their order.
func TestBeliefAssemblyAllocationFree(t *testing.T) {
	a, _, _ := newTestAgent(t, AgentConfig{
		Planner: perfectPlanner(), Memory: MemoryConfig{Capacity: 8}, Execution: true,
	})
	for step := 0; step < 20; step++ {
		a.Store.Add(memory.Record{Step: step, Key: fmt.Sprintf("k%d", step), Tokens: 5})
	}
	ret := a.Store.Retrieve(19)
	obs := newStub().Observe(0)
	extra := []memory.Record{{Step: 19, Kind: memory.Dialogue, Key: "msg", Tokens: 3}}
	beliefSink = a.beliefRecords(ret, obs, extra)
	if allocs := testing.AllocsPerRun(100, func() { beliefSink = a.beliefRecords(ret, obs, extra) }); allocs != 0 {
		t.Fatalf("belief assembly allocates %.1f objects per call, want 0", allocs)
	}
	want := len(ret.Records) + len(obs.Records) + len(extra)
	if len(beliefSink) != want || beliefSink[0].Key != ret.Records[0].Key ||
		beliefSink[len(ret.Records)].Key != "progress" || beliefSink[want-1].Key != "msg" {
		t.Fatalf("belief records out of order: %+v", beliefSink)
	}
}
