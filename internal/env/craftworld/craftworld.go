// Package craftworld implements an open-world resource-gathering and
// crafting environment with a technology tree — the suite's stand-in for
// Minecraft as used by JARVIS-1, MP5 and DEPS (paper Table II).
//
// Long-horizon dependency chains (logs → planks → tools → better tools →
// diamond pickaxe) are the stressor: a planner that forgets where resources
// are re-explores, and one that crafts out of order wastes steps. Target
// items by difficulty mirror the paper's task ladder, from "chopping trees"
// to "obtain diamond pickaxe".
package craftworld

import (
	"fmt"

	"embench/internal/core"
	"embench/internal/modules/execution"
	"embench/internal/modules/memory"
	"embench/internal/path/astar"
	"embench/internal/rng"
	"embench/internal/world"
)

// Item identifies a resource or crafted good.
type Item string

// The item set, bottom of the tech tree first.
const (
	Log            Item = "log"
	Planks         Item = "planks"
	Stick          Item = "stick"
	CraftingTable  Item = "crafting_table"
	WoodenPickaxe  Item = "wooden_pickaxe"
	Cobblestone    Item = "cobblestone"
	StonePickaxe   Item = "stone_pickaxe"
	Furnace        Item = "furnace"
	IronOre        Item = "iron_ore"
	IronIngot      Item = "iron_ingot"
	IronPickaxe    Item = "iron_pickaxe"
	Diamond        Item = "diamond"
	DiamondPickaxe Item = "diamond_pickaxe"
)

// Recipe is a crafting rule.
type Recipe struct {
	Out     Item
	OutQty  int
	In      map[Item]int
	Station Item // "" for hand-craftable
}

// Recipes is the technology tree.
var Recipes = map[Item]Recipe{
	Planks:         {Out: Planks, OutQty: 4, In: map[Item]int{Log: 1}},
	Stick:          {Out: Stick, OutQty: 4, In: map[Item]int{Planks: 2}},
	CraftingTable:  {Out: CraftingTable, OutQty: 1, In: map[Item]int{Planks: 4}},
	WoodenPickaxe:  {Out: WoodenPickaxe, OutQty: 1, In: map[Item]int{Planks: 3, Stick: 2}, Station: CraftingTable},
	StonePickaxe:   {Out: StonePickaxe, OutQty: 1, In: map[Item]int{Cobblestone: 3, Stick: 2}, Station: CraftingTable},
	Furnace:        {Out: Furnace, OutQty: 1, In: map[Item]int{Cobblestone: 8}, Station: CraftingTable},
	IronIngot:      {Out: IronIngot, OutQty: 1, In: map[Item]int{IronOre: 1, Log: 1}, Station: Furnace},
	IronPickaxe:    {Out: IronPickaxe, OutQty: 1, In: map[Item]int{IronIngot: 3, Stick: 2}, Station: CraftingTable},
	DiamondPickaxe: {Out: DiamondPickaxe, OutQty: 1, In: map[Item]int{Diamond: 3, Stick: 2}, Station: CraftingTable},
}

// NodeKind is a gatherable resource deposit type.
type NodeKind struct {
	Yields   Item
	ToolTier int // minimum pickaxe tier to harvest
}

// Resource node kinds and the tool tier needed to harvest them.
var (
	TreeNode    = NodeKind{Yields: Log, ToolTier: 0}
	StoneNode   = NodeKind{Yields: Cobblestone, ToolTier: 1}
	IronNode    = NodeKind{Yields: IronOre, ToolTier: 2}
	DiamondNode = NodeKind{Yields: Diamond, ToolTier: 3}
)

// tierOf maps a pickaxe inventory to the best available tool tier.
func tierOf(inv map[Item]int) int {
	switch {
	case inv[IronPickaxe] > 0:
		return 3
	case inv[StonePickaxe] > 0:
		return 2
	case inv[WoodenPickaxe] > 0:
		return 1
	}
	return 0
}

// toolForTier names the pickaxe that unlocks a tier.
func toolForTier(tier int) Item {
	switch tier {
	case 1:
		return WoodenPickaxe
	case 2:
		return StonePickaxe
	default:
		return IronPickaxe
	}
}

const (
	gridSize     = 30
	viewRadius   = 6
	sectorsPerAx = 3 // 3×3 exploration sectors

	nodeFactTokens = 12
	invFactTokens  = 18
	secFactTokens  = 6
)

// node is a resource deposit.
type node struct {
	id   int
	kind NodeKind
	cell world.Cell
}

// Config parameterizes an episode.
type Config struct {
	Difficulty world.Difficulty
	Horizon    int // 0 = difficulty default
	Seed       string
}

// targetFor maps difficulty to the goal item (the paper's task ladder).
func targetFor(d world.Difficulty) (Item, int) {
	switch d {
	case world.Easy:
		return WoodenPickaxe, 55
	case world.Medium:
		return IronPickaxe, 110
	default:
		return DiamondPickaxe, 170
	}
}

// World is the environment; single-agent, implements core.Domain.
type World struct {
	cfg     Config
	grid    *world.Grid
	planner astar.Planner
	nodes   []node
	agent   world.Cell
	inv     map[Item]int
	target  Item
	horizon int
	step    int
}

// NodeFact is the payload of a resource sighting.
type NodeFact struct {
	ID   int
	Kind Item // what it yields
	Cell world.Cell
	Tier int
}

// New builds an episode; node placement derives from src.
func New(cfg Config, src *rng.Source) *World {
	target, horizon := targetFor(cfg.Difficulty)
	if cfg.Horizon > 0 {
		horizon = cfg.Horizon
	}
	w := &World{
		cfg: cfg, grid: world.NewGrid(gridSize, gridSize),
		inv: map[Item]int{}, target: target, horizon: horizon,
		agent: world.C(gridSize/2, gridSize/2),
	}
	st := src.NewStream("craftworld/" + cfg.Seed)
	place := func(kind NodeKind, count int) {
		for i := 0; i < count; i++ {
			for {
				c := world.C(st.Pick(gridSize), st.Pick(gridSize))
				if c == w.agent {
					continue
				}
				w.nodes = append(w.nodes, node{id: len(w.nodes), kind: kind, cell: c})
				break
			}
		}
	}
	place(TreeNode, 6)
	place(StoneNode, 5)
	place(IronNode, 4)
	place(DiamondNode, 3)
	return w
}

// Name implements core.Domain.
func (w *World) Name() string { return "craftworld" }

// Agents implements core.Domain.
func (w *World) Agents() int { return 1 }

// MaxSteps implements core.Domain.
func (w *World) MaxSteps() int { return w.horizon }

// Step implements core.Domain.
func (w *World) Step() int { return w.step }

// Done implements core.Domain.
func (w *World) Done() bool { return w.Success() || w.step >= w.horizon }

// Success implements core.Domain.
func (w *World) Success() bool { return w.inv[w.target] > 0 }

// Target reports the episode's goal item.
func (w *World) Target() Item { return w.target }

// Inventory reports the count of an item.
func (w *World) Inventory(it Item) int { return w.inv[it] }

// Progress implements core.Domain: fraction of the target's dependency
// closure already satisfied.
func (w *World) Progress() float64 {
	closure := dependencyClosure(w.target)
	if len(closure) == 0 {
		return 1
	}
	have := 0
	for _, it := range closure {
		if w.inv[it] > 0 {
			have++
		}
	}
	if w.Success() {
		return 1
	}
	return float64(have) / float64(len(closure))
}

// dependencyClosure lists the crafted items on the path to target.
func dependencyClosure(target Item) []Item {
	seen := map[Item]bool{}
	var out []Item
	var walk func(it Item)
	walk = func(it Item) {
		if seen[it] {
			return
		}
		seen[it] = true
		r, ok := Recipes[it]
		if !ok {
			// Raw resource: harvesting it may require a tool chain.
			if kind := nodeKindFor(it); kind.ToolTier > 0 {
				walk(toolForTier(kind.ToolTier))
			}
			return
		}
		// Walk inputs in sorted order so the closure list (a plan skeleton)
		// is canonical, not a map-iteration artifact.
		for _, in := range world.SortedKeys(r.In) {
			walk(in)
		}
		if r.Station != "" {
			walk(r.Station)
		}
		out = append(out, it)
	}
	walk(target)
	return out
}

func sectorOf(c world.Cell) int {
	sx := c.X * sectorsPerAx / gridSize
	sy := c.Y * sectorsPerAx / gridSize
	return sy*sectorsPerAx + sx
}

func sectorCenter(s int) world.Cell {
	sx, sy := s%sectorsPerAx, s/sectorsPerAx
	span := gridSize / sectorsPerAx
	return world.C(sx*span+span/2, sy*span+span/2)
}

// StaticRecords implements core.Domain: the recipe book is prior knowledge.
func (w *World) StaticRecords() []memory.Record {
	return []memory.Record{{
		Kind: memory.Observation, Key: "recipes", Payload: "tech-tree",
		Tokens: 120, Static: true,
	}}
}

// Observe implements core.Domain: radius-limited node sightings plus own
// inventory (always known).
func (w *World) Observe(agent int) core.Observation {
	obs := core.Observation{}
	add := func(rec memory.Record) {
		obs.Records = append(obs.Records, rec)
		obs.Tokens += rec.Tokens
	}
	add(memory.Record{
		Step: w.step, Kind: memory.Observation, Key: fmt.Sprintf("sector:%d", sectorOf(w.agent)),
		Payload: sectorOf(w.agent), Tokens: secFactTokens,
	})
	for _, n := range w.nodes {
		if world.Manhattan(n.cell, w.agent) > viewRadius {
			continue
		}
		obs.Entities++
		add(memory.Record{
			Step: w.step, Kind: memory.Observation, Key: fmt.Sprintf("node:%d", n.id),
			Payload: NodeFact{ID: n.id, Kind: n.kind.Yields, Cell: n.cell, Tier: n.kind.ToolTier},
			Tokens:  nodeFactTokens,
		})
	}
	inv := map[Item]int{}
	//detlint:allow maprange keyed copy into fresh map; order-independent
	for k, v := range w.inv {
		inv[k] = v
	}
	add(memory.Record{
		Step: w.step, Kind: memory.Observation, Key: "inventory",
		Payload: inv, Tokens: invFactTokens,
	})
	return obs
}

// belief is the craftworld belief payload.
type belief struct {
	nodes   map[int]NodeFact
	visited map[int]int // sector -> last visit step
	inv     map[Item]int
}

// BuildBelief implements core.Domain.
func (w *World) BuildBelief(agent int, recs []memory.Record) core.Belief {
	b := belief{nodes: map[int]NodeFact{}, visited: map[int]int{}, inv: map[Item]int{}}
	invStep := -1
	for _, r := range recs {
		switch p := r.Payload.(type) {
		case NodeFact:
			b.nodes[p.ID] = p
		case int:
			if r.Static {
				continue
			}
			if cur, ok := b.visited[p]; !ok || r.Step > cur {
				b.visited[p] = r.Step
			}
		case map[Item]int:
			if r.Step > invStep {
				b.inv = p
				invStep = r.Step
			}
		}
	}
	// Nodes never move, so staleness comes only from an outdated inventory
	// picture (e.g. memory window dropped the latest inventory record).
	st := 0.0
	if invStep < w.step-1 {
		st = 0.3
	}
	return core.Belief{Payload: b, Staleness: st}
}

// Subgoal types.

// Gather harvests one unit from a resource node.
type Gather struct {
	Node int
	Cell world.Cell
	Want Item
}

// ID implements core.Subgoal.
func (g Gather) ID() string { return fmt.Sprintf("gather:%d", g.Node) }

// Describe implements core.Subgoal.
func (g Gather) Describe() string { return fmt.Sprintf("gather %s from node %d", g.Want, g.Node) }

// Craft runs one recipe.
type Craft struct{ Out Item }

// ID implements core.Subgoal.
func (c Craft) ID() string { return "craft:" + string(c.Out) }

// Describe implements core.Subgoal.
func (c Craft) Describe() string { return "craft " + string(c.Out) }

// ExploreSector sweeps one of the 3×3 map sectors.
type ExploreSector struct{ Sector int }

// ID implements core.Subgoal.
func (e ExploreSector) ID() string { return fmt.Sprintf("explore:%d", e.Sector) }

// Describe implements core.Subgoal.
func (e ExploreSector) Describe() string { return fmt.Sprintf("explore sector %d", e.Sector) }

// Propose implements core.Domain: recursive goal regression over the tech
// tree from the believed inventory.
func (w *World) Propose(agent int, bel core.Belief) core.Proposal {
	b, _ := bel.Payload.(belief)
	good := w.plan(b, w.target, map[Item]bool{})
	return core.Proposal{
		Good:        good,
		Corruptions: w.corruptions(b, good),
	}
}

// plan returns the next action on the path to obtaining item.
func (w *World) plan(b belief, item Item, visiting map[Item]bool) core.Subgoal {
	if visiting[item] {
		return w.explore(b) // cycle guard; should not happen on a DAG
	}
	visiting[item] = true
	defer delete(visiting, item)

	r, craftable := Recipes[item]
	if !craftable {
		// Raw resource: harvest it.
		kind := nodeKindFor(item)
		tier := tierOf(b.inv)
		if tier < kind.ToolTier {
			return w.plan(b, toolForTier(kind.ToolTier), visiting)
		}
		if n, ok := w.nearestKnownNode(b, item); ok {
			return Gather{Node: n.ID, Cell: n.Cell, Want: item}
		}
		return w.explore(b)
	}
	if r.Station != "" && b.inv[r.Station] == 0 {
		return w.plan(b, r.Station, visiting)
	}
	// Missing ingredients are pursued in a fixed (sorted) order so the
	// regression path never depends on recipe-map iteration order.
	for _, in := range world.SortedKeys(r.In) {
		if b.inv[in] < r.In[in] {
			return w.plan(b, in, visiting)
		}
	}
	return Craft{Out: item}
}

func nodeKindFor(item Item) NodeKind {
	switch item {
	case Log:
		return TreeNode
	case Cobblestone:
		return StoneNode
	case IronOre:
		return IronNode
	default:
		return DiamondNode
	}
}

func (w *World) nearestKnownNode(b belief, yields Item) (NodeFact, bool) {
	// Distance ties break toward the lower node id, never map order.
	best, found := NodeFact{}, false
	bestD := 1 << 30
	for _, id := range world.SortedKeys(b.nodes) {
		n := b.nodes[id]
		if n.Kind != yields {
			continue
		}
		if d := world.Manhattan(w.agent, n.Cell); d < bestD {
			best, bestD, found = n, d, true
		}
	}
	return best, found
}

func (w *World) explore(b belief) core.Subgoal {
	bestS, bestScore := 0, 1<<30
	for s := 0; s < sectorsPerAx*sectorsPerAx; s++ {
		score := 0
		if step, ok := b.visited[s]; ok {
			score = 1000 + step*10
		}
		score += world.Manhattan(w.agent, sectorCenter(s)) / 4
		if score < bestScore {
			bestS, bestScore = s, score
		}
	}
	return ExploreSector{Sector: bestS}
}

// corruptions enumerates plausible wrong decisions: crafting above the
// current tech level (missing ingredients), harvesting beyond the tool
// tier, and re-exploring fresh sectors.
func (w *World) corruptions(b belief, good core.Subgoal) []core.Subgoal {
	var out []core.Subgoal
	add := func(g core.Subgoal) {
		if g != nil && (good == nil || g.ID() != good.ID()) {
			out = append(out, g)
		}
	}
	// Premature craft of the final target.
	if c, ok := Recipes[w.target]; ok {
		missing := false
		//detlint:allow maprange existence check; any order yields the same answer
		for in, qty := range c.In {
			if b.inv[in] < qty {
				missing = true
			}
		}
		if missing {
			add(Craft{Out: w.target})
		}
	}
	// Harvest beyond tool tier.
	tier := tierOf(b.inv)
	for _, id := range world.SortedKeys(b.nodes) {
		if n := b.nodes[id]; n.Tier > tier {
			add(Gather{Node: n.ID, Cell: n.Cell, Want: n.Kind})
			break
		}
	}
	// Re-explore the freshest sector; ties break toward the lower sector.
	freshS, freshStep := -1, -1
	for _, s := range world.SortedKeys(b.visited) {
		if st := b.visited[s]; st > freshStep {
			freshS, freshStep = s, st
		}
	}
	if freshS >= 0 {
		add(ExploreSector{Sector: freshS})
	}
	// Redundant plank crafting.
	if b.inv[Log] > 0 && b.inv[Planks] >= 8 {
		add(Craft{Out: Planks})
	}
	if len(out) == 0 {
		add(ExploreSector{Sector: sectorOf(w.agent)})
	}
	return out
}

// Execute implements core.Domain.
func (w *World) Execute(agent int, g core.Subgoal) execution.Result {
	switch sg := g.(type) {
	case Gather:
		return w.execGather(sg)
	case Craft:
		return w.execCraft(sg)
	case ExploreSector:
		return w.execExplore(sg)
	case nil:
		return execution.Result{Note: "idle"}
	default:
		return execution.Result{Note: "unknown subgoal"}
	}
}

func (w *World) execGather(sg Gather) execution.Result {
	res := w.moveTo(sg.Cell)
	if !res.Achieved {
		return res
	}
	res.Effort.Primitives++ // harvest swing
	if sg.Node < 0 || sg.Node >= len(w.nodes) {
		res.Achieved = false
		res.Note = "no such node"
		return res
	}
	n := w.nodes[sg.Node]
	if n.cell != sg.Cell {
		res.Achieved = false
		res.Note = "node not here"
		return res
	}
	if tierOf(w.inv) < n.kind.ToolTier {
		res.Achieved = false
		res.Note = "tool tier too low"
		return res
	}
	w.inv[n.kind.Yields]++
	res.Achieved = true
	return res
}

func (w *World) execCraft(sg Craft) execution.Result {
	res := execution.Result{Effort: execution.Effort{Primitives: 1}}
	r, ok := Recipes[sg.Out]
	if !ok {
		res.Note = "no recipe"
		return res
	}
	if r.Station != "" && w.inv[r.Station] == 0 {
		res.Note = "missing station"
		return res
	}
	//detlint:allow maprange read-only sufficiency check; order-independent
	for in, qty := range r.In {
		if w.inv[in] < qty {
			res.Note = "missing ingredients"
			return res
		}
	}
	//detlint:allow maprange keyed decrements commute; order-independent
	for in, qty := range r.In {
		w.inv[in] -= qty
	}
	w.inv[r.Out] += r.OutQty
	res.Achieved = true
	return res
}

func (w *World) execExplore(sg ExploreSector) execution.Result {
	if sg.Sector < 0 || sg.Sector >= sectorsPerAx*sectorsPerAx {
		return execution.Result{Note: "no such sector"}
	}
	res := w.moveTo(sectorCenter(sg.Sector))
	res.Effort.Primitives++ // scan
	return res
}

func (w *World) moveTo(target world.Cell) execution.Result {
	plan := w.planner.Plan(w.grid, w.agent, target)
	res := execution.Result{Effort: execution.Effort{AStarExpanded: plan.Expanded}}
	if !plan.Found {
		res.Note = "unreachable"
		return res
	}
	res.Effort.Primitives += len(plan.Path) - 1
	w.agent = target
	res.Achieved = true
	return res
}

// Tick implements core.Domain.
func (w *World) Tick() { w.step++ }

var _ core.Domain = (*World)(nil)
