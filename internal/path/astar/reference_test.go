package astar

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"embench/internal/world"
)

// referencePlan is the map-based A* the Planner replaced: per-query maps
// for g-scores, parents and the closed set, and a container/heap open
// list. TestPlannerMatchesReference holds the Planner to it.
func referencePlan(g *world.Grid, start, goal world.Cell) Result {
	if g.Blocked(start) || g.Blocked(goal) {
		return Result{}
	}
	if start == goal {
		return Result{Path: []world.Cell{start}, Expanded: 1, Found: true}
	}
	gScore := map[world.Cell]int{start: 0}
	parent := map[world.Cell]world.Cell{}
	open := &refHeap{}
	heap.Push(open, item{cell: start, f: world.Manhattan(start, goal)})
	closed := map[world.Cell]bool{}
	expanded := 0
	buf := make([]world.Cell, 0, 4)

	for open.Len() > 0 {
		cur := heap.Pop(open).(item)
		if closed[cur.cell] {
			continue
		}
		closed[cur.cell] = true
		expanded++
		if cur.cell == goal {
			var rev []world.Cell
			for c := goal; ; c = parent[c] {
				rev = append(rev, c)
				if c == start {
					break
				}
			}
			path := make([]world.Cell, len(rev))
			for i, c := range rev {
				path[len(rev)-1-i] = c
			}
			return Result{Path: path, Expanded: expanded, Found: true}
		}
		buf = buf[:0]
		for _, n := range g.Neighbors4(cur.cell, buf) {
			if closed[n] {
				continue
			}
			tentative := gScore[cur.cell] + 1
			if old, ok := gScore[n]; !ok || tentative < old {
				gScore[n] = tentative
				parent[n] = cur.cell
				heap.Push(open, item{cell: n, f: tentative + world.Manhattan(n, goal), g: tentative})
			}
		}
	}
	return Result{Expanded: expanded}
}

// refHeap is a container/heap open list on f, breaking ties toward
// larger g.
type refHeap []item

func (q refHeap) Len() int { return len(q) }
func (q refHeap) Less(i, j int) bool {
	if q[i].f != q[j].f {
		return q[i].f < q[j].f
	}
	return q[i].g > q[j].g
}
func (q refHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refHeap) Push(x any)   { *q = append(*q, x.(item)) }
func (q *refHeap) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// randomGrid draws a w×h grid (3..22 per side) with up to half its cells
// blocked.
func randomGrid(r *rand.Rand) *world.Grid {
	g := world.NewGrid(3+r.Intn(20), 3+r.Intn(20))
	density := r.Float64() / 2
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			if r.Float64() < density {
				g.SetBlocked(world.C(x, y), true)
			}
		}
	}
	return g
}

// randomEndpoint draws a cell one beyond the grid on every side, so some
// endpoints are out of bounds.
func randomEndpoint(r *rand.Rand, g *world.Grid) world.Cell {
	return world.C(r.Intn(g.W+2)-1, r.Intn(g.H+2)-1)
}

// checkQuery plans one query on p and on the reference and reports any
// difference in Expanded, Found or Path.
func checkQuery(t *testing.T, p *Planner, g *world.Grid, start, goal world.Cell) Result {
	t.Helper()
	got, want := p.Plan(g, start, goal), referencePlan(g, start, goal)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%dx%d grid, %v -> %v: planner %+v, reference %+v", g.W, g.H, start, goal, got, want)
	}
	return got
}

// TestPlannerMatchesReference is the differential test of the Planner:
// one planner, reused across random grids of different sizes, must expand
// the same number of nodes and return the same path as the map-based
// reference on every query, including blocked, out-of-bounds and
// start == goal endpoints.
func TestPlannerMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var p Planner
	var found, unreachable, blocked, outside, self int
	for gi := 0; gi < 300; gi++ {
		g := randomGrid(r)
		for qi := 0; qi < 25; qi++ {
			start, goal := randomEndpoint(r, g), randomEndpoint(r, g)
			if qi%8 == 0 {
				goal = start
			}
			res := checkQuery(t, &p, g, start, goal)
			switch {
			case !g.InBounds(start) || !g.InBounds(goal):
				outside++
			case g.Blocked(start) || g.Blocked(goal):
				blocked++
			case start == goal:
				self++
			case res.Found:
				found++
			default:
				unreachable++
			}
		}
	}
	t.Logf("found %d, unreachable %d, blocked %d, out of bounds %d, start == goal %d",
		found, unreachable, blocked, outside, self)
	if found == 0 || unreachable == 0 || blocked == 0 || outside == 0 || self == 0 {
		t.Fatal("the draw missed a kind of query")
	}
	t.Run("generation wrap", testGenerationWrap)
}

// testGenerationWrap runs queries across the wrap of the generation stamp.
// The first query's stamps would read as seen and closed again once the
// counter comes back round to them, unless the wrap clears them.
func testGenerationWrap(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := world.NewGrid(12, 12)
	for i := 0; i < 20; i++ {
		g.SetBlocked(world.C(r.Intn(12), r.Intn(12)), true)
	}
	g.SetBlocked(world.C(0, 0), false)
	g.SetBlocked(world.C(11, 11), false)
	start, goal := world.C(0, 0), world.C(11, 11)
	var p Planner
	checkQuery(t, &p, g, start, goal) // stamps most of g with generation 1
	p.gen = math.MaxUint32 - 1
	// The last query before the wrap touches three cells only.
	checkQuery(t, &p, world.NewGrid(3, 1), world.C(0, 0), world.C(2, 0))
	for i := 0; i < 4; i++ {
		checkQuery(t, &p, g, start, goal)
	}
	if p.gen != 4 {
		t.Fatalf("generation %d after the wrap, want 4", p.gen)
	}
}
