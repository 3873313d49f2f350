// Package astar implements A* grid path planning — the low-level execution
// substrate used by CoELA, COMBO and COHERENT (paper Table II).
//
// The planner reports the number of expanded nodes; the execution module
// converts that to simulated compute latency, which is how low-level
// planning shows up in the paper's latency breakdowns (Fig. 2a).
//
// A Planner owns cell-indexed scratch (g-scores, parents, generation
// stamps), its open list and a path buffer, all reused across queries, so
// a warm planner plans without allocating. Each environment owns one
// Planner value and plans on one goroutine at a time; a Planner is not
// safe for concurrent use. Result.Path is a view into the planner's path
// buffer, valid until the next Plan on that planner: copy it to keep it.
package astar

import "embench/internal/world"

// Result is the outcome of a planning query.
type Result struct {
	Path     []world.Cell // start..goal inclusive; nil when not Found
	Expanded int          // nodes popped from the open list
	Found    bool
}

// Planner is reusable A* scratch. The zero value is ready to use; scratch
// grows to the largest grid planned on.
type Planner struct {
	cells []cellState // indexed y*W+x
	gen   uint32      // stamp of the current query
	open  []item
	path  []world.Cell
	nbrs  [4]world.Cell // Neighbors4 buffer
}

// cellState is one cell's search state. g and parent hold for the query
// whose stamp is in seen; closed marks the cell expanded in that query.
type cellState struct {
	g, parent    int32
	seen, closed uint32
}

// item is a prioritized open-list entry.
type item struct {
	cell world.Cell
	f, g int
}

// Plan searches for a shortest 4-connected path from start to goal on g.
// A blocked or out-of-bounds endpoint yields Found=false. Planning from a
// cell to itself returns a single-cell path. The returned Path is valid
// until the next Plan on p.
func (p *Planner) Plan(g *world.Grid, start, goal world.Cell) Result {
	if g.Blocked(start) || g.Blocked(goal) {
		return Result{}
	}
	p.path = p.path[:0]
	if start == goal {
		p.path = append(p.path, start)
		return Result{Path: p.path, Expanded: 1, Found: true}
	}
	p.reset(g.W * g.H)
	gen, cells, w := p.gen, p.cells, g.W
	si := start.Y*w + start.X
	cells[si] = cellState{seen: gen}
	p.push(item{cell: start, f: world.Manhattan(start, goal)})
	expanded := 0

	for len(p.open) > 0 {
		cur := p.pop()
		ci := cur.cell.Y*w + cur.cell.X
		if cells[ci].closed == gen {
			continue
		}
		cells[ci].closed = gen
		expanded++
		if cur.cell == goal {
			for i := ci; ; i = int(cells[i].parent) {
				p.path = append(p.path, world.C(i%w, i/w))
				if i == si {
					break
				}
			}
			for l, r := 0, len(p.path)-1; l < r; l, r = l+1, r-1 {
				p.path[l], p.path[r] = p.path[r], p.path[l]
			}
			return Result{Path: p.path, Expanded: expanded, Found: true}
		}
		tentative := cells[ci].g + 1
		for _, n := range g.Neighbors4(cur.cell, p.nbrs[:0]) {
			s := &cells[n.Y*w+n.X]
			if s.closed == gen {
				continue
			}
			if s.seen != gen || tentative < s.g {
				s.g, s.parent, s.seen = tentative, int32(ci), gen
				t := int(tentative)
				p.push(item{cell: n, f: t + world.Manhattan(n, goal), g: t})
			}
		}
	}
	return Result{Expanded: expanded}
}

// reset starts a query over n cells: it grows the scratch when needed,
// empties the open list and advances the generation stamp. When the stamp
// wraps, old stamps could collide with new ones, so they are cleared.
func (p *Planner) reset(n int) {
	if n > len(p.cells) {
		p.cells = append(p.cells, make([]cellState, n-len(p.cells))...)
	}
	p.open = p.open[:0]
	p.gen++
	if p.gen == 0 {
		clear(p.cells)
		p.gen = 1
	}
}

// less orders the open list on f, breaking ties toward larger g (deeper
// nodes), the standard A* tie-break that reduces re-expansion.
func less(a, b item) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.g > b.g
}

// push and pop keep p.open a binary min-heap under less. They sift exactly
// as container/heap's Push and Pop do, so equal-priority entries leave the
// heap in the same order and every query expands the same nodes.
func (p *Planner) push(x item) {
	q := append(p.open, x)
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !less(x, q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = x
	p.open = q
}

func (p *Planner) pop() item {
	q := p.open
	top, n := q[0], len(q)-1
	x := q[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && less(q[j2], q[j]) {
			j = j2
		}
		if !less(q[j], x) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = x
	p.open = q[:n]
	return top
}
