package astar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"embench/internal/world"
)

func TestTrivialPath(t *testing.T) {
	g := world.NewGrid(5, 5)
	res := new(Planner).Plan(g, world.C(0, 0), world.C(0, 0))
	if !res.Found || len(res.Path) != 1 {
		t.Fatalf("self-path = %+v", res)
	}
}

func TestStraightLine(t *testing.T) {
	g := world.NewGrid(10, 10)
	res := new(Planner).Plan(g, world.C(0, 0), world.C(5, 0))
	if !res.Found {
		t.Fatal("no path on empty grid")
	}
	if len(res.Path) != 6 {
		t.Fatalf("path length = %d, want 6 cells", len(res.Path))
	}
}

func TestOptimalLengthOnEmptyGrid(t *testing.T) {
	g := world.NewGrid(20, 20)
	start, goal := world.C(2, 3), world.C(15, 11)
	res := new(Planner).Plan(g, start, goal)
	want := world.Manhattan(start, goal) + 1
	if !res.Found || len(res.Path) != want {
		t.Fatalf("path cells = %d, want %d (optimal)", len(res.Path), want)
	}
}

func TestDetour(t *testing.T) {
	g := world.NewGrid(10, 10)
	// Vertical wall with a gap at the top.
	for y := 0; y < 9; y++ {
		g.SetBlocked(world.C(5, y), true)
	}
	res := new(Planner).Plan(g, world.C(0, 0), world.C(9, 0))
	if !res.Found {
		t.Fatal("path exists through the gap")
	}
	if len(res.Path) <= 10 {
		t.Fatalf("detour should be longer than straight line: %d", len(res.Path))
	}
	validatePath(t, g, res.Path, world.C(0, 0), world.C(9, 0))
}

func TestUnreachable(t *testing.T) {
	g := world.NewGrid(10, 10)
	for y := 0; y < 10; y++ {
		g.SetBlocked(world.C(5, y), true)
	}
	res := new(Planner).Plan(g, world.C(0, 0), world.C(9, 0))
	if res.Found {
		t.Fatal("found path through solid wall")
	}
	if res.Expanded == 0 {
		t.Fatal("search should have expanded nodes before giving up")
	}
}

func TestBlockedEndpoints(t *testing.T) {
	g := world.NewGrid(5, 5)
	g.SetBlocked(world.C(0, 0), true)
	if new(Planner).Plan(g, world.C(0, 0), world.C(4, 4)).Found {
		t.Fatal("blocked start should fail")
	}
	if new(Planner).Plan(g, world.C(4, 4), world.C(0, 0)).Found {
		t.Fatal("blocked goal should fail")
	}
}

func validatePath(t *testing.T, g *world.Grid, path []world.Cell, start, goal world.Cell) {
	t.Helper()
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	if path[0] != start || path[len(path)-1] != goal {
		t.Fatalf("endpoints wrong: %v..%v", path[0], path[len(path)-1])
	}
	for i, c := range path {
		if g.Blocked(c) {
			t.Fatalf("path passes blocked cell %v", c)
		}
		if i > 0 && world.Manhattan(path[i-1], c) != 1 {
			t.Fatalf("non-adjacent step %v -> %v", path[i-1], c)
		}
	}
}

func TestRandomGridsProperty(t *testing.T) {
	// Property: on random grids, any found path is valid, connected and
	// obstacle-free; when a path is found its length is at least the
	// Manhattan lower bound.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := world.NewGrid(15, 15)
		for i := 0; i < 40; i++ {
			g.SetBlocked(world.C(r.Intn(15), r.Intn(15)), true)
		}
		start := world.C(r.Intn(15), r.Intn(15))
		goal := world.C(r.Intn(15), r.Intn(15))
		res := new(Planner).Plan(g, start, goal)
		if !res.Found {
			return true
		}
		if path := res.Path; len(path) < world.Manhattan(start, goal)+1 {
			return false
		}
		if res.Path[0] != start || res.Path[len(res.Path)-1] != goal {
			return false
		}
		for i, c := range res.Path {
			if g.Blocked(c) {
				return false
			}
			if i > 0 && world.Manhattan(res.Path[i-1], c) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExpandedGrowsWithDistance(t *testing.T) {
	g := world.NewGrid(40, 40)
	near := new(Planner).Plan(g, world.C(0, 0), world.C(2, 0))
	far := new(Planner).Plan(g, world.C(0, 0), world.C(39, 39))
	if far.Expanded <= near.Expanded {
		t.Fatalf("expanded near=%d far=%d", near.Expanded, far.Expanded)
	}
}

// houseGrid is the gridhouse wall layout: a 25×25 house split into four
// rooms by walls at x=12 and y=12, each wall with two doors.
func houseGrid() *world.Grid {
	g := world.NewGrid(25, 25)
	for i := 0; i < 25; i++ {
		g.SetBlocked(world.C(12, i), true)
		g.SetBlocked(world.C(i, 12), true)
	}
	for _, d := range []world.Cell{world.C(12, 6), world.C(12, 18), world.C(6, 12), world.C(18, 12)} {
		g.SetBlocked(d, false)
	}
	return g
}

// TestPlannerAllocationFree: once its scratch has grown, a planner plans
// across the house without allocating, whether the goal is reached,
// unreachable or the start itself.
func TestPlannerAllocationFree(t *testing.T) {
	g := houseGrid()
	queries := [][2]world.Cell{
		{world.C(2, 2), world.C(18, 18)}, // through two doors
		{world.C(20, 3), world.C(6, 20)},
		{world.C(5, 5), world.C(5, 5)},   // start == goal
		{world.C(0, 0), world.C(12, 0)},  // blocked goal
		{world.C(24, 24), world.C(0, 0)}, // corner to corner
	}
	var p Planner
	for _, q := range queries {
		p.Plan(g, q[0], q[1])
	}
	for _, q := range queries {
		if n := testing.AllocsPerRun(50, func() { p.Plan(g, q[0], q[1]) }); n != 0 {
			t.Errorf("Plan(%v, %v) on a warm planner: %v allocs, want 0", q[0], q[1], n)
		}
	}
}

var sink Result

func BenchmarkPlanOpenGrid(b *testing.B) {
	g := world.NewGrid(50, 50)
	var p Planner
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = p.Plan(g, world.C(0, 0), world.C(49, 49))
	}
}

func BenchmarkPlanMaze(b *testing.B) {
	g := world.NewGrid(50, 50)
	for x := 5; x < 50; x += 10 {
		for y := 0; y < 45; y++ {
			g.SetBlocked(world.C(x, y), true)
		}
	}
	var p Planner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = p.Plan(g, world.C(0, 0), world.C(49, 49))
	}
}
