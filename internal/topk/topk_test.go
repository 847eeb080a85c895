package topk

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"topkmon/internal/geom"
	"topkmon/internal/grid"
	"topkmon/internal/stream"
	"topkmon/internal/validate"
)

// populate fills a grid with n tuples from the generator and returns them.
func populate(g *grid.Grid, gen *stream.Generator, n int) []*stream.Tuple {
	out := make([]*stream.Tuple, n)
	for i := range out {
		t := gen.Next(0)
		g.Insert(t)
		out[i] = t
	}
	return out
}

func TestTopKPanicsOnBadK(t *testing.T) {
	g := grid.New(2, 4, grid.FIFO)
	s := NewSearcher(g)
	defer func() {
		if recover() == nil {
			t.Fatalf("K=0 must panic")
		}
	}()
	s.TopK(Request{F: geom.NewLinear(1, 1), K: 0})
}

func TestEmptyGrid(t *testing.T) {
	g := grid.New(2, 4, grid.FIFO)
	s := NewSearcher(g)
	res := s.TopK(Request{F: geom.NewLinear(1, 1), K: 3})
	if len(res.Top) != 0 {
		t.Fatalf("entries from empty grid: %v", res.Top)
	}
	// With no kth score the search exhausts the whole grid.
	if len(res.Processed) != g.NumCells() {
		t.Fatalf("processed %d cells want %d", len(res.Processed), g.NumCells())
	}
}

func TestFewerPointsThanK(t *testing.T) {
	g := grid.New(2, 4, grid.FIFO)
	gen := stream.NewGenerator(stream.IND, 2, 1)
	pts := populate(g, gen, 3)
	s := NewSearcher(g)
	res := s.TopK(Request{F: geom.NewLinear(1, 1), K: 10})
	if len(res.Top) != len(pts) {
		t.Fatalf("got %d entries want %d", len(res.Top), len(pts))
	}
}

// TestAgainstOracle is the main differential test: random grids, data,
// dimensionalities, ks and function families (including mixed
// monotonicity), compared entry-by-entry with the brute-force oracle.
func TestAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	kinds := []stream.FunctionKind{stream.FuncLinear, stream.FuncProduct, stream.FuncQuadratic, stream.FuncMixed}
	for trial := 0; trial < 120; trial++ {
		d := 1 + rng.Intn(4)
		res := 1 + rng.Intn(12)
		n := rng.Intn(400)
		k := 1 + rng.Intn(25)
		dist := stream.IND
		if trial%2 == 1 {
			dist = stream.ANT
		}
		g := grid.New(d, res, grid.FIFO)
		gen := stream.NewGenerator(dist, d, int64(trial))
		pts := populate(g, gen, n)
		f := stream.NewQueryGenerator(kinds[trial%len(kinds)], d, int64(trial)).Next()
		s := NewSearcher(g)

		got := s.TopK(Request{F: f, K: k})
		want := validate.TopK(pts, f, k, nil)
		if len(got.Top) != len(want) {
			t.Fatalf("trial %d (d=%d res=%d n=%d k=%d %s): %d entries want %d",
				trial, d, res, n, k, f, len(got.Top), len(want))
		}
		for i := range want {
			if got.Top[i].T.ID != want[i].T.ID {
				t.Fatalf("trial %d: entry %d is p%d want p%d (scores %g vs %g)",
					trial, i, got.Top[i].T.ID, want[i].T.ID, got.Top[i].Score, want[i].Score)
			}
		}
	}
}

// TestConstrainedAgainstOracle checks the constrained variant of Figure 12.
func TestConstrainedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 80; trial++ {
		d := 1 + rng.Intn(3)
		g := grid.New(d, 2+rng.Intn(8), grid.FIFO)
		gen := stream.NewGenerator(stream.IND, d, int64(trial))
		pts := populate(g, gen, 100+rng.Intn(200))
		f := stream.NewQueryGenerator(stream.FuncMixed, d, int64(trial)).Next()
		lo := make(geom.Vector, d)
		hi := make(geom.Vector, d)
		for i := 0; i < d; i++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[i], hi[i] = a, b
		}
		constraint := geom.Rect{Lo: lo, Hi: hi}
		k := 1 + rng.Intn(10)
		s := NewSearcher(g)
		got := s.TopK(Request{F: f, K: k, Constraint: &constraint})
		want := validate.TopK(pts, f, k, &constraint)
		if len(got.Top) != len(want) {
			t.Fatalf("trial %d: %d entries want %d", trial, len(got.Top), len(want))
		}
		for i := range want {
			if got.Top[i].T.ID != want[i].T.ID {
				t.Fatalf("trial %d: entry %d is p%d want p%d", trial, i, got.Top[i].T.ID, want[i].T.ID)
			}
		}
		for _, e := range got.Top {
			if !constraint.Contains(e.T.Vec) {
				t.Fatalf("trial %d: result p%d outside constraint", trial, e.T.ID)
			}
		}
	}
}

// TestThresholdAgainstOracle checks the threshold-query variant.
func TestThresholdAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(3)
		g := grid.New(d, 2+rng.Intn(8), grid.FIFO)
		gen := stream.NewGenerator(stream.IND, d, int64(trial))
		pts := populate(g, gen, 100+rng.Intn(200))
		f := stream.NewQueryGenerator(stream.FuncLinear, d, int64(trial)).Next()
		// Pick the threshold near the top of the score range so results are
		// small but usually non-empty.
		threshold := geom.MaxScore(f, geom.UnitRect(d)) * (0.5 + rng.Float64()*0.5)
		s := NewSearcher(g)
		entries, processed := s.Threshold(f, threshold, nil)
		want := validate.Threshold(pts, f, threshold, nil)
		if len(entries) != len(want) {
			t.Fatalf("trial %d: %d entries want %d", trial, len(entries), len(want))
		}
		wantIDs := map[uint64]bool{}
		for _, e := range want {
			wantIDs[e.T.ID] = true
		}
		for _, e := range entries {
			if !wantIDs[e.T.ID] {
				t.Fatalf("trial %d: unexpected entry p%d", trial, e.T.ID)
			}
			if e.Score <= threshold {
				t.Fatalf("trial %d: entry p%d at score %g not above threshold %g", trial, e.T.ID, e.Score, threshold)
			}
		}
		// Processed cells are exactly those with maxscore above threshold.
		wantCells := 0
		for idx := 0; idx < g.NumCells(); idx++ {
			if geom.MaxScore(f, g.Rect(idx)) > threshold {
				wantCells++
			}
		}
		if len(processed) != wantCells {
			t.Fatalf("trial %d: processed %d cells want %d", trial, len(processed), wantCells)
		}
	}
}

// TestMinimalCellProperty verifies the optimality claim of Section 4.2: the
// search processes exactly the cells intersecting the influence region,
// i.e. cells whose maxscore is >= the kth score (when k results exist).
func TestMinimalCellProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(3)
		g := grid.New(d, 2+rng.Intn(10), grid.FIFO)
		gen := stream.NewGenerator(stream.IND, d, int64(trial))
		n := 100 + rng.Intn(300)
		populate(g, gen, n)
		f := stream.NewQueryGenerator(stream.FuncLinear, d, int64(trial)).Next()
		k := 1 + rng.Intn(10)
		s := NewSearcher(g)
		res := s.TopK(Request{F: f, K: k})
		if len(res.Top) < k {
			continue // underfull: the search legitimately exhausts the grid
		}
		kth := res.Top[k-1].Score
		influence := validate.InfluenceCells(g.NumCells(), g.Rect, f, kth, nil)
		processed := map[int]bool{}
		for _, idx := range res.Processed {
			if processed[idx] {
				t.Fatalf("trial %d: cell %d processed twice", trial, idx)
			}
			processed[idx] = true
		}
		for idx := range influence {
			if !processed[idx] {
				t.Fatalf("trial %d: influence cell %d not processed (kth=%g, ms=%g)",
					trial, idx, kth, geom.MaxScore(f, g.Rect(idx)))
			}
		}
		for idx := range processed {
			if !influence[idx] {
				t.Fatalf("trial %d: cell %d processed although maxscore %g < kth %g",
					trial, idx, geom.MaxScore(f, g.Rect(idx)), kth)
			}
		}
	}
}

// TestPaperFigure5 reconstructs the example of Figure 5(a): a 7x7 grid,
// f = x1 + 2*x2, two points; the search must process only cells whose
// maxscore is at least score(p1) and return p1.
func TestPaperFigure5(t *testing.T) {
	g := grid.New(2, 7, grid.FIFO)
	// p1 near the top-left: high x2; p2 to its lower-right.
	p1 := &stream.Tuple{ID: 1, Seq: 1, Vec: geom.Vector{0.36, 0.93}}
	p2 := &stream.Tuple{ID: 2, Seq: 2, Vec: geom.Vector{0.55, 0.80}}
	g.Insert(p1)
	g.Insert(p2)
	f := geom.NewLinear(1, 2)
	s := NewSearcher(g)
	res := s.TopK(Request{F: f, K: 1})
	if len(res.Top) != 1 || res.Top[0].T.ID != 1 {
		t.Fatalf("result=%v want p1", res.Top)
	}
	// The first processed cell must be the top-right corner c_{6,6}.
	coords := make([]int, 2)
	g.CoordsInto(res.Processed[0], coords)
	if coords[0] != 6 || coords[1] != 6 {
		t.Fatalf("first processed cell %v want [6 6]", coords)
	}
	// Optimality: every processed cell has maxscore >= score(p1).
	kth := res.Top[0].Score
	for _, idx := range res.Processed {
		if ms := geom.MaxScore(f, g.Rect(idx)); ms < kth {
			t.Fatalf("processed cell with maxscore %g < %g", ms, kth)
		}
	}
}

// TestPaperFigure7a covers f = x1 - x2 (decreasing on x2, Figure 7a): the
// search starts from the bottom-right corner.
func TestPaperFigure7a(t *testing.T) {
	g := grid.New(2, 7, grid.FIFO)
	gen := stream.NewGenerator(stream.IND, 2, 77)
	pts := populate(g, gen, 200)
	f := geom.NewLinear(1, -1)
	s := NewSearcher(g)
	res := s.TopK(Request{F: f, K: 2})
	want := validate.TopK(pts, f, 2, nil)
	if res.Top[0].T.ID != want[0].T.ID || res.Top[1].T.ID != want[1].T.ID {
		t.Fatalf("got %v want %v", res.Top, want)
	}
	coords := make([]int, 2)
	g.CoordsInto(res.Processed[0], coords)
	if coords[0] != 6 || coords[1] != 0 {
		t.Fatalf("first processed cell %v want [6 0]", coords)
	}
}

// TestScoreTiesResolvedByArrival: two tuples with identical coordinates;
// the later arrival must rank first under the total order.
func TestScoreTiesResolvedByArrival(t *testing.T) {
	g := grid.New(2, 4, grid.FIFO)
	a := &stream.Tuple{ID: 1, Seq: 1, Vec: geom.Vector{0.7, 0.7}}
	b := &stream.Tuple{ID: 2, Seq: 2, Vec: geom.Vector{0.7, 0.7}}
	g.Insert(a)
	g.Insert(b)
	s := NewSearcher(g)
	res := s.TopK(Request{F: geom.NewLinear(1, 1), K: 1})
	if res.Top[0].T.ID != 2 {
		t.Fatalf("tie must be won by the later arrival, got p%d", res.Top[0].T.ID)
	}
}

// TestSearcherReuse runs many queries on one searcher to exercise the
// generation-stamped visited array.
func TestSearcherReuse(t *testing.T) {
	g := grid.New(2, 8, grid.FIFO)
	gen := stream.NewGenerator(stream.IND, 2, 5)
	pts := populate(g, gen, 300)
	s := NewSearcher(g)
	qg := stream.NewQueryGenerator(stream.FuncLinear, 2, 6)
	for i := 0; i < 50; i++ {
		f := qg.Next()
		res := s.TopK(Request{F: f, K: 4})
		want := validate.TopK(pts, f, 4, nil)
		if !sameIDs(res.Top, want) {
			t.Fatalf("query %d: results diverged", i)
		}
	}
	if s.CellsProcessed == 0 {
		t.Fatalf("processed-cell counter not maintained")
	}
}

func sameIDs(a []Entry, b []validate.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T.ID != b[i].T.ID {
			return false
		}
	}
	return true
}

// TestWarmSearchAllocatesNothing pins the pooled-scratch contract: once a
// searcher has run a computation of a given size, repeating it (top-k,
// constrained top-k or threshold) allocates nothing.
func TestWarmSearchAllocatesNothing(t *testing.T) {
	g := grid.New(4, 12, grid.FIFO)
	populate(g, stream.NewGenerator(stream.ANT, 4, 9), 3000)
	s := NewSearcher(g)
	f := geom.NewLinear(0.3, -0.7, 0.2, 0.9)
	c := &geom.Rect{Lo: geom.Vector{0, 0.25, -1, 0.5}, Hi: geom.Vector{0.75, 1, 2, 1}}
	cases := map[string]func(){
		"topk":                  func() { s.TopK(Request{F: f, K: 20}) },
		"constrained":           func() { s.TopK(Request{F: f, K: 20, Constraint: c}) },
		"threshold":             func() { s.Threshold(f, 0.9, nil) },
		"constrained threshold": func() { s.Threshold(f, 0.5, c) },
	}
	for name, run := range cases {
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s: %v allocs per warm run, want 0", name, allocs)
		}
	}
}

// refHeap is container/heap's max-heap over heapItem. Its sift-up and
// sift-down are the binary-heap algorithm cellHeap implements, so the two
// must pop equal maxscores in the same order.
type refHeap []heapItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].maxscore > h[j].maxscore }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// popAll drains h and returns the popped maxscores.
func popAll(h *cellHeap) []float64 {
	var out []float64
	for len(*h) > 0 {
		out = append(out, h.pop().maxscore)
	}
	return out
}

// TestCellHeapPushPopOrder: pushes followed by pops come out in
// descending maxscore order, duplicates included.
func TestCellHeapPushPopOrder(t *testing.T) {
	var h cellHeap
	for i, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		h.push(heapItem{v, int32(i)})
	}
	want := []float64{9, 6, 5, 4, 3, 2, 1, 1}
	for i, w := range want {
		if got := h.pop().maxscore; got != w {
			t.Fatalf("pop %d: got %g want %g", i, got, w)
		}
	}
}

// TestCellHeapDrain: popping until empty returns every item and leaves
// the heap empty and reusable.
func TestCellHeapDrain(t *testing.T) {
	h := make(cellHeap, 0, 4)
	for i, v := range []float64{5, 2, 8} {
		h.push(heapItem{v, int32(i)})
	}
	got := popAll(&h)
	if len(got) != 3 || got[0] != 8 || got[1] != 5 || got[2] != 2 {
		t.Fatalf("drain=%v", got)
	}
	if len(h) != 0 {
		t.Fatalf("drain must empty the heap")
	}
	h.push(heapItem{42, 0})
	if top := h.pop().maxscore; top != 42 || len(h) != 0 {
		t.Fatalf("heap unusable after drain: popped %g, len %d", top, len(h))
	}
}

// TestCellHeapSortProperty: popping everything yields a descending sort.
func TestCellHeapSortProperty(t *testing.T) {
	prop := func(values []int8) bool {
		var h cellHeap
		want := make([]float64, len(values))
		for i, v := range values {
			h.push(heapItem{float64(v), int32(i)})
			want[i] = float64(v)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		got := popAll(&h)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCellHeapInterleavedOps drives cellHeap and container/heap through
// the same random interleaving of pushes and pops, with heavy maxscore
// ties, and requires identical pop sequences (maxscore and node): the
// tie order is part of the pinned search walk.
func TestCellHeapInterleavedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 200; trial++ {
		var h cellHeap
		ref := &refHeap{}
		levels := 1 + rng.Intn(8)
		for op := 0; op < 300; op++ {
			if len(h) > 0 && rng.Intn(3) == 0 {
				got, want := h.pop(), heap.Pop(ref).(heapItem)
				if got != want {
					t.Fatalf("trial %d op %d: popped %+v want %+v", trial, op, got, want)
				}
				continue
			}
			x := heapItem{float64(rng.Intn(levels)), int32(op)}
			h.push(x)
			heap.Push(ref, x)
		}
		prev := math.Inf(1)
		for len(h) > 0 {
			got, want := h.pop(), heap.Pop(ref).(heapItem)
			if got != want {
				t.Fatalf("trial %d drain: popped %+v want %+v", trial, got, want)
			}
			if got.maxscore > prev {
				t.Fatalf("trial %d drain: %g after %g, not descending", trial, got.maxscore, prev)
			}
			prev = got.maxscore
		}
	}
}
