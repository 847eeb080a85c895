// Package topk implements the top-k computation module of Figure 6: a
// best-first search over grid cells in descending maxscore order that
// processes exactly the cells intersecting the query's influence region.
//
// The search starts from the cell maximizing the scoring function (the
// top-right corner cell of Figure 5 for functions increasing on both
// axes), and after processing a cell en-heaps its "worse" neighbor along
// every axis — the generalization to arbitrary per-dimension monotonicity
// and dimensionality described with Figure 7. It terminates when the best
// unprocessed cell cannot contain a tuple preferable to the current kth
// result.
//
// Two variants extend the module per Section 7: constrained top-k queries
// restrict the search (and the point filter) to a constraint rectangle
// (Figure 12), and threshold queries collect every tuple scoring above a
// user threshold using a plain list instead of a heap, since the visiting
// order does not matter.
//
// Each step of the walk is table-driven. At the start of a computation the
// searcher builds a dims×res table of best-corner coordinates (the cell
// bounds c/res and (c+1)/res picked by the function's direction and
// clipped to the constraint) and a matching per-axis "meets the
// constraint" table. Queued cells live in a node arena that carries their
// axis coordinates, so stepping to a worse neighbour is an add and a
// bounds check, and the neighbour's maxscore is the parent's best corner
// with one coordinate swapped, scored pointwise by f.Score. The heap is a
// typed binary heap over (maxscore, node) pairs with inline comparisons.
// The tables hold the same doubles the grid's cell rectangles do, so the
// walk — cells, order, CellsProcessed and HeapOps — is exactly the one the
// per-cell rectangle arithmetic defines; golden_test.go pins it.
package topk

import (
	"math"
	"slices"

	"topkmon/internal/geom"
	"topkmon/internal/grid"
	"topkmon/internal/stream"
)

// Entry is one result tuple with its score under the query's function.
type Entry struct {
	T     *stream.Tuple
	Score float64
}

// Request describes one top-k computation.
type Request struct {
	// F is the monotone preference function.
	F geom.ScoringFunction
	// K is the number of results to retrieve.
	K int
	// Constraint optionally restricts the query to tuples inside a
	// rectangle of the grid's dimensionality (constrained top-k, Section
	// 7). Nil means unconstrained.
	Constraint *geom.Rect
}

// Result is the outcome of a top-k computation. Its slices alias the
// searcher's pooled scratch buffers: they are valid until the next TopK or
// Threshold call on the same searcher, and callers that keep them longer
// must copy (the engine copies what it retains).
type Result struct {
	// Top holds up to K entries in descending total order.
	Top []Entry
	// Processed lists the de-heaped cells: exactly the cells intersecting
	// the influence region (Figure 6 line 13).
	Processed []int
}

// Searcher runs top-k computations against a grid. It owns reusable
// scratch state (corner tables, node arena, heap, visited stamps), so it
// is not safe for concurrent use; the engine runs computations
// sequentially, matching the paper's single-server model.
type Searcher struct {
	g       *grid.Grid
	res     int
	stride  []int     // the grid's cell-index strides (grid.Strides)
	edges   []float64 // the grid's cell boundaries (grid.Edges)
	visited []uint32
	gen     uint32
	// Per-computation cell geometry, rebuilt at the start of each call:
	// corner[i*res+c] is the best-corner coordinate of axis-i cell
	// coordinate c (clipped to the constraint), inside[i*res+c] whether
	// that slab meets the constraint, and step[i] the worse-neighbour
	// direction along axis i.
	corner []float64
	inside []bool
	step   []int
	point  geom.Vector // the best corner of the cell being expanded
	// Node arena: queued node n is cell nodeCell[n] with axis coordinates
	// nodeCoord[n*dims:(n+1)*dims], so the walk never decodes an index.
	nodeCell  []int32
	nodeCoord []int32
	heap      cellHeap
	frontier  []heapItem // neighbours produced by one expand
	// pooled per-computation buffers: cell scores (the vectorized scoring
	// block), the processed cell list, the threshold search's DFS stack,
	// the bounded top list, and the threshold result list. Reused across
	// calls so steady-state recomputations allocate nothing; Result
	// documents the aliasing.
	scores     []float64
	processed  []int
	stack      []heapItem
	top        topList
	thrEntries []Entry
	// CellsProcessed accumulates the number of de-heaped cells across
	// computations; used by the experiment harness.
	CellsProcessed int64
	// HeapOps accumulates cell-heap pushes and pops across computations.
	// Together with CellsProcessed it measures the work of one computation,
	// which the engine attributes to the owning query for cost-aware shard
	// rebalancing.
	HeapOps int64
}

// NewSearcher returns a searcher bound to g.
func NewSearcher(g *grid.Grid) *Searcher {
	d, res := g.Dims(), g.Res()
	s := &Searcher{
		g:       g,
		res:     res,
		stride:  g.Strides(),
		edges:   g.Edges(),
		visited: make([]uint32, g.NumCells()),
		corner:  make([]float64, d*res),
		inside:  make([]bool, d*res),
		step:    make([]int, d),
		point:   make(geom.Vector, d),
		heap:    make(cellHeap, 0, 64),
	}
	return s
}

// Grid returns the searcher's grid.
func (s *Searcher) Grid() *grid.Grid { return s.g }

// begin resets the per-computation state for a search under f and the
// optional constraint, and returns the arena node of the starting cell
// (Figure 6 line 2, Figure 12 for constrained queries) with its maxscore.
// ok is false when the starting cell misses the constraint, in which case
// the search visits nothing.
//
// The tables hold the values maxscore needs: cell c of axis i spans
// [edges[c], edges[c+1]] (the grid's own table, which grid.RectInto
// reads); clipped to the constraint, its best corner is the upper bound
// where f increases and the lower bound elsewhere. These are the doubles
// grid.RectInto, Rect.IntersectInto and geom.BestCornerInto produce, so scoring the assembled corner is bit-identical to scoring
// the clipped cell rectangle.
func (s *Searcher) begin(f geom.ScoringFunction, c *geom.Rect) (start heapItem, ok bool) {
	s.gen++
	if s.gen == 0 { // stamp wrap-around: reset the array once per 2^32 runs
		clear(s.visited)
		s.gen = 1
	}
	s.processed = s.processed[:0]
	s.nodeCell = s.nodeCell[:0]
	s.nodeCoord = s.nodeCoord[:0]
	dims, res := len(s.stride), s.res
	idx := s.g.BestCell(f)
	if c != nil {
		idx = s.g.BestCellIn(f, *c)
	}
	s.visited[idx] = s.gen
	for i := 0; i < dims; i++ {
		inc := f.Direction(i) == geom.Increasing
		s.step[i] = 1
		if inc {
			s.step[i] = -1
		}
		row, in := s.corner[i*res:(i+1)*res], s.inside[i*res:(i+1)*res]
		for cc := range row {
			lo, hi := s.edges[cc], s.edges[cc+1]
			in[cc] = true
			if c != nil {
				in[cc] = lo <= c.Hi[i] && c.Lo[i] <= hi
				lo, hi = math.Max(lo, c.Lo[i]), math.Min(hi, c.Hi[i])
			}
			if inc {
				row[cc] = hi
			} else {
				row[cc] = lo
			}
		}
	}
	s.nodeCell = append(s.nodeCell, int32(idx))
	s.nodeCoord = slices.Grow(s.nodeCoord, dims)[:dims]
	ok = true
	for i := dims - 1; i >= 0; i-- {
		cc := idx / s.stride[i]
		idx -= cc * s.stride[i]
		s.nodeCoord[i] = int32(cc)
		ok = ok && s.inside[i*res+cc]
		s.point[i] = s.corner[i*res+cc]
	}
	if !ok {
		return heapItem{}, false
	}
	return heapItem{f.Score(s.point), 0}, true
}

// expand fills s.frontier with the not yet visited worse neighbours of
// node (one step per axis, Figure 6 line 12 generalized by Figure 7) that
// meet the constraint, each with its maxscore. A neighbour differs from
// node on one axis only, so its best corner is node's with one coordinate
// swapped.
func (s *Searcher) expand(node int32, f geom.ScoringFunction) {
	dims, res := len(s.stride), s.res
	coords := s.nodeCoord[int(node)*dims : (int(node)+1)*dims]
	cell := int(s.nodeCell[node])
	for i, cc := range coords {
		s.point[i] = s.corner[i*res+int(cc)]
	}
	s.frontier = s.frontier[:0]
	for i, cc := range coords {
		nc := int(cc) + s.step[i]
		if nc < 0 || nc >= res {
			continue
		}
		n := cell + s.step[i]*s.stride[i]
		if s.visited[n] == s.gen {
			continue
		}
		s.visited[n] = s.gen
		if !s.inside[i*res+nc] {
			continue
		}
		saved := s.point[i]
		s.point[i] = s.corner[i*res+nc]
		ms := f.Score(s.point)
		s.point[i] = saved
		id := int32(len(s.nodeCell))
		s.nodeCell = append(s.nodeCell, int32(n))
		s.nodeCoord = append(s.nodeCoord, coords...)
		s.nodeCoord[int(id)*dims+i] = int32(nc)
		s.frontier = append(s.frontier, heapItem{ms, id})
	}
}

// scoreCell fills s.scores with the scores of cell idx's live tuples via
// the vectorized block kernel and returns the cell's columnar block.
func (s *Searcher) scoreCell(idx int, f geom.ScoringFunction) grid.Block {
	blk := s.g.CellBlock(idx)
	n := blk.Len()
	if cap(s.scores) < n {
		s.scores = make([]float64, n, n+n/2+8)
	}
	s.scores = s.scores[:n]
	geom.ScoreBlockInto(f, blk.Coords, s.g.Dims(), s.scores)
	return blk
}

// TopK runs the computation module for req and returns the result entries
// together with the processed cell set.
func (s *Searcher) TopK(req Request) Result {
	if req.K <= 0 {
		panic("topk: K must be positive")
	}
	s.heap = s.heap[:0]
	s.top.reset(req.K)
	dims := s.g.Dims()
	if start, ok := s.begin(req.F, req.Constraint); ok {
		s.heap.push(start)
		s.HeapOps++
	}
	for len(s.heap) > 0 {
		// Termination: the best unprocessed cell cannot contain a tuple
		// preferable to the current kth result. We stop on strictly
		// smaller maxscore (not <=) so that a tuple tying the kth score
		// but arriving later — preferable under the total order — is
		// never missed.
		if kth, full := s.top.kth(); full && s.heap[0].maxscore < kth {
			break
		}
		next := s.heap.pop()
		s.CellsProcessed++
		s.HeapOps++
		idx := int(s.nodeCell[next.node])
		s.processed = append(s.processed, idx)

		if s.g.CellLen(idx) > 0 {
			blk := s.scoreCell(idx, req.F)
			for j, sc := range s.scores {
				if req.Constraint != nil &&
					!req.Constraint.Contains(geom.Vector(blk.Coords[j*dims:(j+1)*dims])) {
					continue
				}
				s.top.offer(blk.Ptrs[j], blk.Seqs[j], sc)
			}
		}

		s.expand(next.node, req.F)
		for _, it := range s.frontier {
			s.heap.push(it)
			s.HeapOps++
		}
	}
	return Result{Top: s.top.entries, Processed: s.processed}
}

// Threshold collects every tuple with score strictly above the threshold,
// visiting cells from the best corner with a plain stack (Section 7: the
// visiting order does not matter for threshold queries). It returns the
// matching entries (unordered) and the set of processed cells, which is
// exactly the set of cells whose maxscore exceeds the threshold — the
// query's influence region. Like Result, the returned slices alias pooled
// searcher buffers valid until the next computation.
func (s *Searcher) Threshold(f geom.ScoringFunction, threshold float64, constraint *geom.Rect) ([]Entry, []int) {
	s.thrEntries = s.thrEntries[:0]
	dims := s.g.Dims()
	stack := s.stack[:0]
	if start, ok := s.begin(f, constraint); ok && start.maxscore > threshold {
		stack = append(stack, start)
	}
	for len(stack) > 0 {
		node := stack[len(stack)-1].node
		stack = stack[:len(stack)-1]
		idx := int(s.nodeCell[node])
		s.CellsProcessed++
		s.processed = append(s.processed, idx)
		if s.g.CellLen(idx) > 0 {
			blk := s.scoreCell(idx, f)
			for j, sc := range s.scores {
				if sc <= threshold {
					continue
				}
				if constraint != nil &&
					!constraint.Contains(geom.Vector(blk.Coords[j*dims:(j+1)*dims])) {
					continue
				}
				s.thrEntries = append(s.thrEntries, Entry{T: blk.Ptrs[j], Score: sc})
			}
		}
		// A neighbour at or below the threshold is marked visited but
		// never stacked: it would be popped and dropped without effect.
		s.expand(node, f)
		for _, it := range s.frontier {
			if it.maxscore > threshold {
				stack = append(stack, it)
			}
		}
	}
	s.stack = stack
	return s.thrEntries, s.processed
}

// heapItem is one queued cell: its maxscore and its arena node.
type heapItem struct {
	maxscore float64
	node     int32
}

// cellHeap is the binary max-heap H of Figure 6 over cell maxscores.
// Equal maxscores pop in the order the sift sequence below determines, so
// the sequence is part of the search's pinned walk.
type cellHeap []heapItem

func (h *cellHeap) push(x heapItem) {
	a := append(*h, x)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(x.maxscore > a[p].maxscore) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = x
	*h = a
}

func (h *cellHeap) pop() heapItem {
	a := *h
	top, n := a[0], len(a)-1
	x := a[n]
	// The vacated slot a[n] holds a -Inf sentinel, so a left child at
	// n-1 compares against it instead of testing for a right child; the
	// sentinel never wins (-Inf > y is false for every y, NaN included).
	a[n] = heapItem{maxscore: math.Inf(-1)}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		right := 0
		if a[c+1].maxscore > a[c].maxscore {
			right = 1
		}
		c += right
		if !(a[c].maxscore > x.maxscore) {
			break
		}
		a[i] = a[c]
		i = c
	}
	if n > 0 {
		a[i] = x
	}
	*h = a[:n]
	return top
}

// topList maintains the best-k candidates in descending total order during
// a search (the red-black-tree q.top_list of the analysis; a bounded
// sorted slice has the same O(log k) search and is faster at the paper's
// k <= 100 because of locality). It is embedded in the Searcher and reset
// per computation, reusing its backing array.
type topList struct {
	k       int
	entries []Entry
}

func (tl *topList) reset(k int) {
	tl.k = k
	tl.entries = tl.entries[:0]
}

// kth returns the current kth score; full is false while fewer than k
// candidates have been seen (in which case every tuple qualifies).
func (tl *topList) kth() (float64, bool) {
	if len(tl.entries) < tl.k {
		return math.Inf(-1), false
	}
	return tl.entries[tl.k-1].Score, true
}

// offer considers one candidate. seq is the tuple's arrival sequence,
// passed alongside so the bounded-list reject path never dereferences the
// tuple (block scoring reads it from the cell's sequence column).
func (tl *topList) offer(t *stream.Tuple, seq uint64, score float64) {
	if len(tl.entries) == tl.k {
		last := tl.entries[tl.k-1]
		if !stream.Better(score, seq, last.Score, last.T.Seq) {
			return
		}
	}
	lo, hi := 0, len(tl.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if stream.Better(tl.entries[mid].Score, tl.entries[mid].T.Seq, score, seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if len(tl.entries) < tl.k {
		tl.entries = append(tl.entries, Entry{})
	}
	copy(tl.entries[lo+1:], tl.entries[lo:])
	tl.entries[lo] = Entry{T: t, Score: score}
}
