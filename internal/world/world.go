// Package world provides the spatial and task primitives shared by all
// environments in the suite: occupancy grids, cells, difficulty levels and
// task descriptors.
package world

import "fmt"

// Cell is a discrete grid coordinate.
type Cell struct{ X, Y int }

// String renders the cell as (x,y).
func (c Cell) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Add offsets the cell.
func (c Cell) Add(dx, dy int) Cell { return Cell{c.X + dx, c.Y + dy} }

// Manhattan reports the L1 distance between two cells.
func Manhattan(a, b Cell) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Dirs4 enumerates the four cardinal moves.
var Dirs4 = [4]Cell{{0, 1}, {0, -1}, {1, 0}, {-1, 0}}

// Grid is a rectangular occupancy grid. Construct with NewGrid.
type Grid struct {
	W, H    int
	blocked []bool
}

// NewGrid returns an empty (fully free) w×h grid. It panics on
// non-positive dimensions, which are always programming errors.
func NewGrid(w, h int) *Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("world: invalid grid dimensions %dx%d", w, h))
	}
	return &Grid{W: w, H: h, blocked: make([]bool, w*h)}
}

// InBounds reports whether c lies inside the grid.
func (g *Grid) InBounds(c Cell) bool {
	return c.X >= 0 && c.X < g.W && c.Y >= 0 && c.Y < g.H
}

// Blocked reports whether c is an obstacle; out-of-bounds cells are blocked.
func (g *Grid) Blocked(c Cell) bool {
	if !g.InBounds(c) {
		return true
	}
	return g.blocked[c.Y*g.W+c.X]
}

// SetBlocked marks or clears an obstacle; out-of-bounds cells are ignored.
func (g *Grid) SetBlocked(c Cell, v bool) {
	if g.InBounds(c) {
		g.blocked[c.Y*g.W+c.X] = v
	}
}

// BlockRect marks the rectangle [x0,x1]×[y0,y1] (inclusive) as obstacles —
// a convenience for drawing walls.
func (g *Grid) BlockRect(x0, y0, x1, y1 int) {
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			g.SetBlocked(Cell{x, y}, true)
		}
	}
}

// Free counts unblocked cells.
func (g *Grid) Free() int {
	n := 0
	for _, b := range g.blocked {
		if !b {
			n++
		}
	}
	return n
}

// Neighbors4 appends to dst the free cardinal neighbors of c and returns
// the extended slice; pass a reusable buffer to avoid allocation.
func (g *Grid) Neighbors4(c Cell, dst []Cell) []Cell {
	for _, d := range Dirs4 {
		n := c.Add(d.X, d.Y)
		if !g.Blocked(n) {
			dst = append(dst, n)
		}
	}
	return dst
}

// Difficulty grades a task instance, following the paper's easy / medium /
// hard sweeps (Figs. 5 and 7).
type Difficulty int

// Task difficulty levels.
const (
	Easy Difficulty = iota
	Medium
	Hard
)

// String names the difficulty.
func (d Difficulty) String() string {
	switch d {
	case Easy:
		return "easy"
	case Medium:
		return "medium"
	case Hard:
		return "hard"
	}
	return fmt.Sprintf("difficulty(%d)", int(d))
}

// Difficulties lists the sweep order used by the benchmarks.
var Difficulties = []Difficulty{Easy, Medium, Hard}

// C constructs a Cell — the keyed-literal shorthand used across the suite.
func C(x, y int) Cell { return Cell{X: x, Y: y} }
