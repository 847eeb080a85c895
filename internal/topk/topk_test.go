package topk

import (
	"math/rand"
	"testing"

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
