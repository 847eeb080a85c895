package topk

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"topkmon/internal/geom"
	"topkmon/internal/grid"
	"topkmon/internal/stream"
)

// The golden traversal tests pin the exact cell walk of TopK and
// Threshold: the de-heaped cells in order, the CellsProcessed and HeapOps
// work of every call, and the returned entries. The search's step cost
// may change; the walk it performs may not, because the engine charges
// that work to queries for cost-aware placement and the difftests replay
// transcripts byte for byte. The pinned values were recorded from the
// reference walk, which computed each cell's maxscore from its rectangle
// (grid.RectInto, clipped to the constraint, geom.BestCornerInto) and
// queued cells in a generic binary heap.

// trace is one call's fingerprint.
type trace struct {
	processed uint64 // FNV-64a of Processed, in order
	entries   uint64 // FNV-64a of the returned (ID, score bits) pairs, in order
	cells     int64  // CellsProcessed delta
	heapOps   int64  // HeapOps delta
}

func hashCells(cells []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range cells {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	return h.Sum64()
}

func hashEntries(es []Entry) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, e := range es {
		binary.LittleEndian.PutUint64(b[:8], e.T.ID)
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(e.Score))
		h.Write(b[:])
	}
	return h.Sum64()
}

func traceTopK(s *Searcher, req Request) trace {
	c0, h0 := s.CellsProcessed, s.HeapOps
	res := s.TopK(req)
	return trace{hashCells(res.Processed), hashEntries(res.Top), s.CellsProcessed - c0, s.HeapOps - h0}
}

func traceThreshold(s *Searcher, f geom.ScoringFunction, thr float64, c *geom.Rect) trace {
	c0, h0 := s.CellsProcessed, s.HeapOps
	es, processed := s.Threshold(f, thr, c)
	return trace{hashCells(processed), hashEntries(es), s.CellsProcessed - c0, s.HeapOps - h0}
}

// goldenGrid builds a populated grid for one case.
func goldenGrid(dist stream.Distribution, d, res, n int, seed int64) *grid.Grid {
	g := grid.New(d, res, grid.FIFO)
	populate(g, stream.NewGenerator(dist, d, seed), n)
	return g
}

func rect(lo, hi []float64) *geom.Rect { return &geom.Rect{Lo: lo, Hi: hi} }

// goldenCase is one pinned computation. k > 0 runs TopK; k == 0 runs
// Threshold at thr.
type goldenCase struct {
	name string
	dist stream.Distribution
	d    int
	res  int
	n    int
	f    geom.ScoringFunction
	k    int
	thr  float64
	c    *geom.Rect
	want trace
}

var goldenCases = []goldenCase{
	// Unconstrained top-k across data sets, dimensionalities and
	// function families.
	{name: "ind-d1-res2", dist: stream.IND, d: 1, res: 2, n: 50, f: geom.NewLinear(1), k: 5,
		want: trace{0x89cd31291d2aefa4, 0xf7f445470d432734, 1, 3}},
	{name: "ind-d2-res7-fig5", dist: stream.IND, d: 2, res: 7, n: 300, f: geom.NewLinear(1, 2), k: 10,
		want: trace{0xd7d47a9c044924f8, 0xc23c24c1a136db5b, 6, 17}},
	{name: "ant-d2-res12", dist: stream.ANT, d: 2, res: 12, n: 800, f: geom.NewLinear(0.6, 0.4), k: 20,
		want: trace{0x2eaf6902ce85f82d, 0xac36b6e6c068f27c, 40, 91}},
	{name: "ant-d3-res10-neg", dist: stream.ANT, d: 3, res: 10, n: 1000, f: geom.NewLinear(0.5, -0.3, 0.8), k: 15,
		want: trace{0xc6ade762d26c8467, 0xfe95f091953f41ff, 61, 165}},
	{name: "ind-d3-res5-zero", dist: stream.IND, d: 3, res: 5, n: 400, f: geom.NewLinear(0, 1, 0.5), k: 8,
		want: trace{0xac468711beed0106, 0x3fe2bca90a18ae36, 10, 35}},
	{name: "ant-d4-res12", dist: stream.ANT, d: 4, res: 12, n: 3000, f: geom.NewLinear(0.3, 0.7, 0.2, 0.9), k: 20,
		want: trace{0x118c34938292da81, 0x5d699d043e891351, 1903, 4660}},
	{name: "ind-d4-res6-allneg", dist: stream.IND, d: 4, res: 6, n: 1500, f: geom.NewLinear(-0.2, -0.9, -0.5, -0.1), k: 12,
		want: trace{0x5c76ca4478ebc5fd, 0x361e82c46f2017e7, 70, 237}},
	{name: "ant-d5-res4-mixedzero", dist: stream.ANT, d: 5, res: 4, n: 2000, f: geom.NewLinear(0.4, 0, -0.6, 0.1, -0.2), k: 25,
		want: trace{0x8095d4d720e85465, 0x6a6702f318327b77, 88, 320}},
	{name: "ind-d5-res3-product", dist: stream.IND, d: 5, res: 3, n: 600, f: geom.NewProduct(0.1, 0.5, 0.9, 0.3, 0.7), k: 7,
		want: trace{0x3e8ef0448cea6f90, 0x72ac3a6f2bfb959d, 30, 108}},
	{name: "ant-d3-res8-quadneg", dist: stream.ANT, d: 3, res: 8, n: 900, f: geom.NewQuadratic(0.8, -0.4, 0.6), k: 10,
		want: trace{0x491271a227365a10, 0xd1b1353d39af0af8, 39, 110}},
	{name: "ind-d2-res9-allzero", dist: stream.IND, d: 2, res: 9, n: 200, f: geom.NewLinear(0, 0), k: 3,
		want: trace{0xa30eee22155bf975, 0x354ef52042f445a1, 81, 162}},
	{name: "ind-d2-res4-underfull", dist: stream.IND, d: 2, res: 4, n: 6, f: geom.NewLinear(1, 1), k: 10,
		want: trace{0x93de551a575bfce5, 0x55dacf073700cf30, 16, 32}},
	// Constrained top-k: rectangles on exact cell boundaries, degenerate,
	// spilling outside the unit cube, and entirely outside it.
	{name: "ind-d2-res10-on-boundary", dist: stream.IND, d: 2, res: 10, n: 800, f: geom.NewLinear(1, 1), k: 5,
		c: rect([]float64{0.2, 0.3}, []float64{0.7, 0.7}), want: trace{0x14c30d477c37bce, 0x3f8ccd81c6bc5160, 8, 21}},
	{name: "ant-d2-res10-degenerate", dist: stream.ANT, d: 2, res: 10, n: 800, f: geom.NewLinear(0.5, -1), k: 5,
		c: rect([]float64{0.7, 0}, []float64{0.7, 1}), want: trace{0x718159f5fdd22ce5, 0xcbf29ce484222325, 20, 40}},
	{name: "ind-d3-res6-spill", dist: stream.IND, d: 3, res: 6, n: 900, f: geom.NewLinear(-0.4, 0.9, 0.2), k: 9,
		c: rect([]float64{-0.5, 0.25, -1}, []float64{0.5, 1.5, 2}), want: trace{0x34fe0b921ae344d8, 0x518f12582afa9d94, 10, 35}},
	{name: "ant-d4-res5-boundary-neg", dist: stream.ANT, d: 4, res: 5, n: 1500, f: geom.NewLinear(0.3, -0.6, 0, 0.8), k: 10,
		c: rect([]float64{0.2, 0.4, 0, 0.6}, []float64{0.8, 1, 0.4, 1}), want: trace{0xbe19f6e4b2482b1f, 0x98192618bf1b4c86, 18, 69}},
	{name: "ind-d2-res8-outside", dist: stream.IND, d: 2, res: 8, n: 300, f: geom.NewLinear(1, 1), k: 4,
		c: rect([]float64{1.2, 0}, []float64{1.5, 1}), want: trace{0xcbf29ce484222325, 0xcbf29ce484222325, 0, 0}},
	{name: "ind-d5-res3-constrained-quad", dist: stream.IND, d: 5, res: 3, n: 1200, f: geom.NewQuadratic(0.2, 0.4, -0.6, 0.8, 0), k: 6,
		c: rect([]float64{0, 1.0 / 3, 0, 0, 0.5}, []float64{2.0 / 3, 1, 1, 0.5, 1}), want: trace{0xde47898f08e1dcf8, 0x4ca29bd4d54f6085, 22, 78}},
	// Threshold queries.
	{name: "thr-ind-d2-res10", dist: stream.IND, d: 2, res: 10, n: 800, f: geom.NewLinear(1, 1), thr: 1.5,
		want: trace{0x3d88d2531d26630c, 0x168892f22f108bf7, 15, 0}},
	{name: "thr-ant-d3-res8-neg", dist: stream.ANT, d: 3, res: 8, n: 1000, f: geom.NewLinear(0.7, -0.5, 0.4), thr: 0.5,
		want: trace{0x391f77344d0c0517, 0x8dcc708a8286744, 183, 0}},
	{name: "thr-ant-d4-res12", dist: stream.ANT, d: 4, res: 12, n: 3000, f: geom.NewLinear(0.3, 0.7, 0.2, 0.9), thr: 1.3,
		want: trace{0x2eafc5612ae1fbe8, 0x309bd41f8beba85f, 6748, 0}},
	{name: "thr-ind-d5-res4-zero", dist: stream.IND, d: 5, res: 4, n: 1500, f: geom.NewLinear(0.5, 0, -0.5, 1, 0.2), thr: 1.2,
		want: trace{0x6492094883e11115, 0xca920ee1af1032c5, 184, 0}},
	{name: "thr-ind-d1-res5-product", dist: stream.IND, d: 1, res: 5, n: 60, f: geom.NewProduct(0.5), thr: 1.1,
		want: trace{0x6b228fa21f9a4d82, 0xd70893a8976fdfc6, 2, 0}},
	{name: "thr-ind-d2-res10-boundary", dist: stream.IND, d: 2, res: 10, n: 800, f: geom.NewLinear(1, -1), thr: 0.1,
		c: rect([]float64{0.3, 0.1}, []float64{0.7, 0.9}), want: trace{0x76368affd7f5a4bf, 0xc2a1ea92da06d34, 21, 0}},
	{name: "thr-ant-d3-res6-spill", dist: stream.ANT, d: 3, res: 6, n: 900, f: geom.NewQuadratic(0.6, 0.6, -0.3), thr: 0.2,
		c: rect([]float64{-1, 0.5, -0.5}, []float64{0.5, 2, 1.5}), want: trace{0x8803550af93fde39, 0x868ff8cc3681b7f8, 78, 0}},
	{name: "thr-ind-d2-res8-outside", dist: stream.IND, d: 2, res: 8, n: 300, f: geom.NewLinear(1, 1), thr: 0,
		c: rect([]float64{-0.5, 0}, []float64{-0.1, 1}), want: trace{0xcbf29ce484222325, 0xcbf29ce484222325, 0, 0}},
}

func (c goldenCase) run(s *Searcher) trace {
	if c.k > 0 {
		return traceTopK(s, Request{F: c.f, K: c.k, Constraint: c.c})
	}
	return traceThreshold(s, c.f, c.thr, c.c)
}

// TestGoldenTraversal pins each case's walk, twice on one searcher so a
// reused searcher is held to the same walk as a fresh one.
func TestGoldenTraversal(t *testing.T) {
	for i, c := range goldenCases {
		g := goldenGrid(c.dist, c.d, c.res, c.n, int64(1000+i))
		s := NewSearcher(g)
		for rep := 0; rep < 2; rep++ {
			if got := c.run(s); got != c.want {
				t.Errorf("%s (run %d): got trace{%#x, %#x, %d, %d} want %+v",
					c.name, rep, got.processed, got.entries, got.cells, got.heapOps, c.want)
			}
		}
	}
}

// TestGoldenTraversalSweep folds a seeded sweep of random computations
// into one digest: random data set, d = 1..5, res = 2..12, function
// family (including mixed signs and zero weights), k, and constraint
// rectangles whose bounds are snapped to cell boundaries or pushed
// outside the unit cube.
func TestGoldenTraversalSweep(t *testing.T) {
	const (
		grids    = 100
		perGrid  = 20
		wantHash = uint64(0xea73fd09afca1cf3)
		wantCell = int64(3887681)
		wantHeap = int64(3042908)
	)
	rng := rand.New(rand.NewSource(7))
	kinds := []stream.FunctionKind{stream.FuncLinear, stream.FuncProduct, stream.FuncQuadratic, stream.FuncMixed}
	sum := fnv.New64a()
	var cells, heap int64
	var b [32]byte
	for gi := 0; gi < grids; gi++ {
		d := 1 + rng.Intn(5)
		res := 2 + rng.Intn(11)
		dist := stream.IND
		if gi%2 == 1 {
			dist = stream.ANT
		}
		g := goldenGrid(dist, d, res, rng.Intn(1500), int64(gi))
		s := NewSearcher(g)
		qg := stream.NewQueryGenerator(kinds[gi%len(kinds)], d, int64(gi))
		for qi := 0; qi < perGrid; qi++ {
			f := qg.Next()
			if lin, ok := f.(*geom.Linear); ok && rng.Intn(4) == 0 {
				w := lin.Weights()
				w[rng.Intn(d)] = 0
				f = geom.NewLinear(w...)
			}
			var c *geom.Rect
			if rng.Intn(2) == 0 {
				c = randomConstraint(rng, d, res)
			}
			var tr trace
			if qi%2 == 0 {
				tr = traceTopK(s, Request{F: f, K: 1 + rng.Intn(30), Constraint: c})
			} else {
				lo := geom.MinScore(f, geom.UnitRect(d))
				hi := geom.MaxScore(f, geom.UnitRect(d))
				tr = traceThreshold(s, f, lo+(hi-lo)*rng.Float64(), c)
			}
			binary.LittleEndian.PutUint64(b[0:], tr.processed)
			binary.LittleEndian.PutUint64(b[8:], tr.entries)
			binary.LittleEndian.PutUint64(b[16:], uint64(tr.cells))
			binary.LittleEndian.PutUint64(b[24:], uint64(tr.heapOps))
			sum.Write(b[:])
			cells += tr.cells
			heap += tr.heapOps
		}
	}
	if got := sum.Sum64(); got != wantHash || cells != wantCell || heap != wantHeap {
		t.Fatalf("sweep: got digest %#x cells %d heapOps %d; want %#x %d %d",
			got, cells, heap, wantHash, wantCell, wantHeap)
	}
}

// randomConstraint draws a rectangle whose bounds are, per axis, either
// exact cell boundaries (c/res, as the grid computes them), arbitrary
// values, or values outside [0,1].
func randomConstraint(rng *rand.Rand, d, res int) *geom.Rect {
	lo := make(geom.Vector, d)
	hi := make(geom.Vector, d)
	for i := 0; i < d; i++ {
		var a, b float64
		switch rng.Intn(3) {
		case 0:
			a, b = float64(rng.Intn(res+1))/float64(res), float64(rng.Intn(res+1))/float64(res)
		case 1:
			a, b = rng.Float64(), rng.Float64()
		default:
			a, b = rng.Float64()*3-1, rng.Float64()*3-1
		}
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b
	}
	return &geom.Rect{Lo: lo, Hi: hi}
}
