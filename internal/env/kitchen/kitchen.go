// Package kitchen implements an order-driven collaborative cooking game —
// the suite's stand-in for CuisineWorld (MindAgent) and the TDW-Game/
// TDW-Cook tasks (COMBO) of the paper's Table II.
//
// Dishes arrive over time and move through station-bound stages (chop,
// cook, plate, serve). Stations have unit capacity, so team throughput
// hinges on conflict-free assignment — the quantity the paper's centralized
// vs decentralized scalability analysis (Fig. 7) measures. Stage
// completions are observed as *events*, so an agent that forgets what the
// team already did re-attempts finished work.
package kitchen

import (
	"fmt"

	"embench/internal/core"
	"embench/internal/modules/execution"
	"embench/internal/modules/memory"
	"embench/internal/rng"
	"embench/internal/world"
)

// Station identifies a workstation kind.
type Station string

// Workstation kinds in stage order.
const (
	Counter Station = "counter" // ingredient fetch; unlimited capacity
	Board   Station = "board"   // chopping
	Stove   Station = "stove"   // cooking
	Pass    Station = "pass"    // plating
	Window  Station = "window"  // serving
)

// stationSlots is the per-step capacity of each station kind.
var stationSlots = map[Station]int{Counter: 1 << 30, Board: 2, Stove: 2, Pass: 2, Window: 1}

// Recipe is a dish's stage sequence.
type Recipe struct {
	Name   string
	Stages []Station
}

// The menu. Later dishes need more stages — harder orders.
var (
	Salad = Recipe{Name: "salad", Stages: []Station{Counter, Board, Pass, Window}}
	Soup  = Recipe{Name: "soup", Stages: []Station{Counter, Board, Stove, Pass, Window}}
	Roast = Recipe{Name: "roast", Stages: []Station{Counter, Board, Stove, Stove, Pass, Window}}
)

// Order is one dish request.
type Order struct {
	ID       int
	Recipe   Recipe
	Arrival  int // step it became visible
	Deadline int // serve by this step to count
	Stage    int // next stage index to perform
	served   int // step served, -1 if not
}

// Done reports whether the order completed all stages.
func (o *Order) Done() bool { return o.Stage >= len(o.Recipe.Stages) }

// Config parameterizes an episode.
type Config struct {
	Agents     int
	Difficulty world.Difficulty
	Horizon    int // 0 = difficulty default
	Orders     int // 0 = difficulty default
	Seed       string
}

// defaults reports the horizon, order deadline and arrival interval per
// difficulty. CuisineWorld is a continuous dispatch game: orders keep
// arriving for the whole episode, so the total order count follows from
// horizon and interval rather than being fixed.
func defaults(d world.Difficulty) (horizon, deadline, interval int) {
	switch d {
	case world.Easy:
		return 45, 26, 5
	case world.Medium:
		return 80, 32, 4
	default:
		return 120, 36, 3
	}
}

// Token sizes for rendered facts.
const (
	orderFactTokens = 16
	progFactTokens  = 10
)

// Game is the environment. It implements core.Domain and
// core.CentralDomain.
type Game struct {
	cfg      Config
	agents   int
	orders   []*Order
	pending  []*Order // not yet arrived
	horizon  int
	deadline int
	step     int
	occupied map[Station]int // slots used this step
	events   []memory.Record // completions emitted this step
	prevEv   []memory.Record // last step's completions, still observable
	required int             // orders to serve on time for success
}

// OrderFact announces an order on the board.
type OrderFact struct {
	ID       int
	Recipe   string
	Stages   int
	Deadline int
}

// ProgressFact is a stage-completion event.
type ProgressFact struct {
	Order int
	Stage int // the stage index that was completed
}

// ClaimFact is an "agent is working order O stage S" intent.
type ClaimFact struct {
	Agent int
	Order int
	Stage int
}

// New builds an episode; the order schedule derives from src.
func New(cfg Config, src *rng.Source) *Game {
	if cfg.Agents <= 0 {
		cfg.Agents = 2
	}
	horizon, deadline, interval := defaults(cfg.Difficulty)
	if cfg.Horizon > 0 {
		horizon = cfg.Horizon
	}
	// Orders arrive continuously until ~2/3 of the horizon, leaving room
	// to finish the tail of the queue.
	orders := 2 + (horizon*2/3)/interval
	if cfg.Orders > 0 {
		orders = cfg.Orders
	}
	g := &Game{
		cfg: cfg, agents: cfg.Agents, horizon: horizon, deadline: deadline,
		occupied: map[Station]int{},
	}
	st := src.NewStream("kitchen/" + cfg.Seed)
	menu := []Recipe{Salad, Soup, Roast}
	weights := menuWeights(cfg.Difficulty)
	for i := 0; i < orders; i++ {
		r := menu[pickWeighted(st, weights)]
		arrival := 0
		if i >= 2 {
			arrival = (i - 1) * interval
		}
		o := &Order{ID: i, Recipe: r, Arrival: arrival, Deadline: arrival + deadline, served: -1}
		if arrival == 0 {
			g.orders = append(g.orders, o)
		} else {
			g.pending = append(g.pending, o)
		}
	}
	g.required = (orders*7 + 9) / 10 // 70%, rounded up
	return g
}

func menuWeights(d world.Difficulty) []float64 {
	switch d {
	case world.Easy:
		return []float64{0.7, 0.3, 0}
	case world.Medium:
		return []float64{0.3, 0.5, 0.2}
	default:
		return []float64{0.2, 0.4, 0.4}
	}
}

func pickWeighted(st *rng.Stream, w []float64) int {
	x := st.Float64()
	acc := 0.0
	for i, p := range w {
		acc += p
		if x < acc {
			return i
		}
	}
	return len(w) - 1
}

// Name implements core.Domain.
func (g *Game) Name() string { return "kitchen" }

// Agents implements core.Domain.
func (g *Game) Agents() int { return g.agents }

// MaxSteps implements core.Domain.
func (g *Game) MaxSteps() int { return g.horizon }

// Step implements core.Domain.
func (g *Game) Step() int { return g.step }

// ServedOnTime counts orders served before their deadlines.
func (g *Game) ServedOnTime() int {
	n := 0
	for _, o := range g.orders {
		if o.served >= 0 && o.served <= o.Deadline {
			n++
		}
	}
	return n
}

// TotalOrders reports the episode's full order count.
func (g *Game) TotalOrders() int { return len(g.orders) + len(g.pending) }

// Required reports the on-time serve count needed for success.
func (g *Game) Required() int { return g.required }

// Success implements core.Domain: at least 80% of orders served on time.
func (g *Game) Success() bool { return g.ServedOnTime() >= g.required }

// Done implements core.Domain.
func (g *Game) Done() bool {
	if g.step >= g.horizon {
		return true
	}
	// All orders resolved (served or past deadline with success settled).
	if len(g.pending) > 0 {
		return false
	}
	for _, o := range g.orders {
		if !o.Done() && g.step <= o.Deadline {
			return false
		}
	}
	return true
}

// Progress implements core.Domain.
func (g *Game) Progress() float64 {
	total := g.TotalOrders()
	if total == 0 {
		return 1
	}
	return float64(g.ServedOnTime()) / float64(total)
}

// StaticRecords implements core.Domain: the station map and menu.
func (g *Game) StaticRecords() []memory.Record {
	return []memory.Record{
		{Kind: memory.Observation, Key: "map:stations", Payload: "layout", Tokens: 60, Static: true},
		{Kind: memory.Observation, Key: "menu", Payload: "recipes", Tokens: 50, Static: true},
	}
}

// Observe implements core.Domain: the order board (state) plus this step's
// completion events. Stage progress itself is NOT in the state — remember
// it or redo it.
func (g *Game) Observe(agent int) core.Observation {
	obs := core.Observation{}
	add := func(rec memory.Record) {
		obs.Records = append(obs.Records, rec)
		obs.Tokens += rec.Tokens
	}
	for _, o := range g.orders {
		if o.Done() {
			continue
		}
		obs.Entities++
		add(memory.Record{
			Step: g.step, Kind: memory.Observation, Key: fmt.Sprintf("order:%d", o.ID),
			Payload: OrderFact{ID: o.ID, Recipe: o.Recipe.Name, Stages: len(o.Recipe.Stages), Deadline: o.Deadline},
			Tokens:  orderFactTokens,
		})
	}
	// Completion events stay observable through the following step:
	// executions happen after sensing within a step, so the team reads a
	// completion at the start of the next one.
	for _, ev := range g.prevEv {
		add(ev)
	}
	for _, ev := range g.events {
		add(ev)
	}
	return obs
}

// belief is the kitchen belief payload.
type belief struct {
	orders map[int]OrderFact
	stage  map[int]int // believed next stage per order
	claims map[int]ClaimFact
}

// BuildBelief implements core.Domain.
func (g *Game) BuildBelief(agent int, recs []memory.Record) core.Belief {
	b := belief{orders: map[int]OrderFact{}, stage: map[int]int{}, claims: map[int]ClaimFact{}}
	for _, r := range recs {
		switch p := r.Payload.(type) {
		case OrderFact:
			b.orders[p.ID] = p
		case ProgressFact:
			if p.Stage+1 > b.stage[p.Order] {
				b.stage[p.Order] = p.Stage + 1
			}
		case ClaimFact:
			b.claims[p.Agent] = p
		}
	}
	// Staleness: fraction of believed-open orders whose believed next stage
	// lags the truth (someone progressed or served them unseen).
	known, stale := 0, 0
	//detlint:allow maprange counting loop; only totals leave it
	for id := range b.orders {
		o := g.orderByID(id)
		if o == nil {
			continue
		}
		known++
		if b.stage[id] < o.Stage {
			stale++
		}
	}
	st := 0.0
	if known > 0 {
		st = float64(stale) / float64(known)
	}
	return core.Belief{Payload: b, Staleness: st}
}

func (g *Game) orderByID(id int) *Order {
	for _, o := range g.orders {
		if o.ID == id {
			return o
		}
	}
	return nil
}

// Op is the kitchen subgoal: perform one stage of one order.
type Op struct {
	Order   int
	Stage   int
	Station Station
}

// ID implements core.Subgoal.
func (o Op) ID() string { return fmt.Sprintf("op:%d:%d", o.Order, o.Stage) }

// Describe implements core.Subgoal.
func (o Op) Describe() string {
	return fmt.Sprintf("order %d stage %d at %s", o.Order, o.Stage, o.Station)
}

// Idle is the do-nothing subgoal (a valid corruption and a valid central
// assignment when the team outnumbers the work).
type Idle struct{}

// ID implements core.Subgoal.
func (Idle) ID() string { return "idle" }

// Describe implements core.Subgoal.
func (Idle) Describe() string { return "wait" }

// Propose implements core.Domain (decentralized agent view).
func (g *Game) Propose(agent int, bel core.Belief) core.Proposal {
	b, _ := bel.Payload.(belief)
	prop := core.Proposal{Complexity: core.DecentralizedComplexity(g.agents)}
	good := g.bestOp(b, agent)
	prop.Good = good
	prop.Corruptions = g.corruptions(b, good)
	return prop
}

// bestOp picks the earliest-deadline believed-open order whose next stage
// is unclaimed by teammates.
func (g *Game) bestOp(b belief, agent int) core.Subgoal {
	// Deadline ties break toward the lower order id, never map order.
	bestID, bestDeadline := -1, 1<<30
	for _, id := range world.SortedKeys(b.orders) {
		f := b.orders[id]
		stage := b.stage[id]
		if stage >= f.Stages {
			continue
		}
		if claimed(b.claims, agent, id, stage) {
			continue
		}
		if f.Deadline < bestDeadline {
			bestID, bestDeadline = id, f.Deadline
		}
	}
	if bestID < 0 {
		return Idle{}
	}
	o := g.orderByID(bestID)
	stage := b.stage[bestID]
	station := Counter
	if o != nil && stage < len(o.Recipe.Stages) {
		station = o.Recipe.Stages[stage]
	}
	return Op{Order: bestID, Stage: stage, Station: station}
}

func claimed(claims map[int]ClaimFact, agent, order, stage int) bool {
	//detlint:allow maprange existence check; any order yields the same answer
	for a, c := range claims {
		if a != agent && c.Order == order && c.Stage == stage {
			return true
		}
	}
	return false
}

// corruptions: redo a believed-done stage, jump a stage ahead, grab a
// claimed op, or idle.
func (g *Game) corruptions(b belief, good core.Subgoal) []core.Subgoal {
	var out []core.Subgoal
	add := func(sg core.Subgoal) {
		if sg != nil && (good == nil || sg.ID() != good.ID()) {
			out = append(out, sg)
		}
	}
	for _, id := range world.SortedKeys(b.orders) {
		f := b.orders[id]
		stage := b.stage[id]
		if stage > 0 {
			add(Op{Order: id, Stage: stage - 1, Station: stationAt(g, id, stage-1)}) // redo
		}
		if stage+1 < f.Stages {
			add(Op{Order: id, Stage: stage + 1, Station: stationAt(g, id, stage+1)}) // skip ahead
		}
		if len(out) >= 2 {
			break
		}
	}
	for _, a := range world.SortedKeys(b.claims) {
		c := b.claims[a]
		add(Op{Order: c.Order, Stage: c.Stage, Station: stationAt(g, c.Order, c.Stage)})
		break
	}
	add(Idle{})
	return out
}

func stationAt(g *Game, orderID, stage int) Station {
	o := g.orderByID(orderID)
	if o == nil || stage < 0 || stage >= len(o.Recipe.Stages) {
		return Counter
	}
	return o.Recipe.Stages[stage]
}

// ProposeJoint implements core.CentralDomain: earliest-deadline-first
// assignment of distinct feasible ops, respecting station capacity.
func (g *Game) ProposeJoint(bel core.Belief) core.Proposal {
	b, _ := bel.Payload.(belief)
	good := &core.Joint{Assign: map[int]core.Subgoal{}}
	type cand struct {
		id, stage int
		deadline  int
	}
	var cands []cand
	for _, id := range world.SortedKeys(b.orders) {
		f := b.orders[id]
		stage := b.stage[id]
		if stage < f.Stages {
			cands = append(cands, cand{id: id, stage: stage, deadline: f.Deadline})
		}
	}
	// Stable insertion sort by deadline (tiny n); candidates enter in id
	// order, so deadline ties keep the lower id first deterministically.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].deadline < cands[j-1].deadline; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	slots := map[Station]int{}
	ci := 0
	for a := 0; a < g.agents; a++ {
		assigned := false
		for ci < len(cands) {
			c := cands[ci]
			ci++
			st := stationAt(g, c.id, c.stage)
			if slots[st] >= stationSlots[st] {
				continue
			}
			slots[st]++
			good.Assign[a] = Op{Order: c.id, Stage: c.stage, Station: st}
			assigned = true
			break
		}
		if !assigned {
			good.Assign[a] = Idle{}
		}
	}
	// Corruptions: pile everyone on the first op (station conflicts) or
	// idle the whole team.
	pile := &core.Joint{Assign: map[int]core.Subgoal{}}
	lazy := &core.Joint{Assign: map[int]core.Subgoal{}}
	var first core.Subgoal = Idle{}
	if len(cands) > 0 {
		first = Op{Order: cands[0].id, Stage: cands[0].stage, Station: stationAt(g, cands[0].id, cands[0].stage)}
	}
	for a := 0; a < g.agents; a++ {
		pile.Assign[a] = first
		lazy.Assign[a] = Idle{}
	}
	return core.Proposal{
		Good:        good,
		Corruptions: []core.Subgoal{pile, lazy},
		Complexity:  core.CentralizedComplexity(g.agents),
	}
}

// Execute implements core.Domain.
func (g *Game) Execute(agent int, sg core.Subgoal) execution.Result {
	switch op := sg.(type) {
	case Op:
		return g.execOp(op)
	case Idle, nil:
		return execution.Result{Achieved: true, Note: "idle"}
	default:
		return execution.Result{Note: "unknown subgoal"}
	}
}

func (g *Game) execOp(op Op) execution.Result {
	res := execution.Result{Effort: execution.Effort{Primitives: 2}} // walk + operate
	o := g.orderByID(op.Order)
	if o == nil {
		res.Note = "unknown order"
		return res
	}
	if o.Done() {
		res.Note = "order already complete"
		return res
	}
	if op.Stage != o.Stage {
		res.Note = "wrong stage"
		return res
	}
	station := o.Recipe.Stages[o.Stage]
	if station != op.Station {
		res.Note = "wrong station"
		return res
	}
	if g.occupied[station] >= stationSlots[station] {
		res.Note = "station busy"
		return res
	}
	g.occupied[station]++
	o.Stage++
	g.events = append(g.events, memory.Record{
		Step: g.step, Kind: memory.Observation, Key: fmt.Sprintf("prog:%d:%d", o.ID, o.Stage-1),
		Payload: ProgressFact{Order: o.ID, Stage: o.Stage - 1}, Tokens: progFactTokens,
	})
	if o.Done() {
		o.served = g.step
	}
	res.Achieved = true
	return res
}

// Tick implements core.Domain: release stations, deliver arrivals, clear
// the event buffer, advance the step.
func (g *Game) Tick() {
	g.step++
	g.occupied = map[Station]int{}
	g.prevEv = g.events
	g.events = nil
	var still []*Order
	for _, o := range g.pending {
		if o.Arrival <= g.step {
			g.orders = append(g.orders, o)
		} else {
			still = append(still, o)
		}
	}
	g.pending = still
}

// ClaimRecord implements core.Claimer: an op claims its (order, stage);
// idling clears the claim.
func (g *Game) ClaimRecord(agent int, sg core.Subgoal) (memory.Record, bool) {
	order, stage := -1, -1
	if op, ok := sg.(Op); ok {
		order, stage = op.Order, op.Stage
	}
	return memory.Record{
		Kind: memory.Action, Key: fmt.Sprintf("claim:%d", agent),
		Payload: ClaimFact{Agent: agent, Order: order, Stage: stage}, Tokens: 8,
	}, true
}

// CorrectionRecords implements core.Corrector: an op that failed at the
// station reveals the order's true progress (the agent can see the dish in
// front of it).
func (g *Game) CorrectionRecords(agent int, sg core.Subgoal, res execution.Result) []memory.Record {
	op, ok := sg.(Op)
	if !ok || res.Achieved {
		return nil
	}
	o := g.orderByID(op.Order)
	if o == nil {
		return nil
	}
	var recs []memory.Record
	for s := 0; s < o.Stage; s++ {
		recs = append(recs, memory.Record{
			Step: g.step, Kind: memory.Action, Key: fmt.Sprintf("prog:%d:%d", o.ID, s),
			Payload: ProgressFact{Order: o.ID, Stage: s}, Tokens: progFactTokens,
		})
	}
	return recs
}

var (
	_ core.Domain        = (*Game)(nil)
	_ core.CentralDomain = (*Game)(nil)
	_ core.Claimer       = (*Game)(nil)
	_ core.Corrector     = (*Game)(nil)
)
