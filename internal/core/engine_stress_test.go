package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/validate"
	"topkmon/internal/window"
)

// TestEngineLifecycleStress drives a long randomized session: queries of
// all kinds registering and unregistering mid-stream, bursty arrival
// rates, and per-cycle differential checks against the oracle.
func TestEngineLifecycleStress(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	e := mustEngine(t, Options{Dims: 3, Window: window.Count(400), TargetCells: 512})
	gen := stream.NewGenerator(stream.IND, 3, 72)
	qg := stream.NewQueryGenerator(stream.FuncMixed, 3, 73)

	type liveQuery struct {
		id   QueryID
		spec QuerySpec
	}
	var live []liveQuery
	var valid []*stream.Tuple

	registerRandom := func() {
		spec := QuerySpec{F: qg.Next(), K: 1 + rng.Intn(12), Policy: Policy(rng.Intn(2))}
		switch rng.Intn(4) {
		case 0:
			lo := geom.Vector{rng.Float64() * 0.5, rng.Float64() * 0.5, rng.Float64() * 0.5}
			hi := geom.Vector{lo[0] + 0.4, lo[1] + 0.4, lo[2] + 0.4}
			spec.Constraint = &geom.Rect{Lo: lo, Hi: hi}
		case 1:
			thr := rng.Float64()
			spec.Threshold = &thr
			spec.Policy = TMA
		}
		id, err := e.Register(spec)
		if err != nil {
			t.Fatalf("register: %v", err)
		}
		live = append(live, liveQuery{id, spec})
	}
	for i := 0; i < 6; i++ {
		registerRandom()
	}

	for ts := 0; ts < 150; ts++ {
		// Bursty rates, including empty cycles.
		rate := rng.Intn(20)
		batch := gen.Batch(rate, int64(ts))
		if _, err := e.Step(int64(ts), batch); err != nil {
			t.Fatalf("ts=%d: %v", ts, err)
		}
		valid = append(valid, batch...)
		if len(valid) > 400 {
			valid = valid[len(valid)-400:]
		}

		// Churn the query population.
		if rng.Intn(5) == 0 && len(live) > 2 {
			i := rng.Intn(len(live))
			if err := e.Unregister(live[i].id); err != nil {
				t.Fatalf("unregister: %v", err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		if rng.Intn(5) == 0 {
			registerRandom()
		}

		for _, q := range live {
			got, err := e.Result(q.id)
			if err != nil {
				t.Fatalf("ts=%d query %d: %v", ts, q.id, err)
			}
			var want []validate.Entry
			if q.spec.Threshold != nil {
				want = validate.Threshold(valid, q.spec.F, *q.spec.Threshold, q.spec.Constraint)
			} else {
				want = validate.TopK(valid, q.spec.F, q.spec.K, q.spec.Constraint)
			}
			if len(got) != len(want) {
				t.Fatalf("ts=%d query %d: %d results want %d", ts, q.id, len(got), len(want))
			}
			for j := range want {
				if got[j].T.ID != want[j].T.ID {
					t.Fatalf("ts=%d query %d rank %d: p%d want p%d", ts, q.id, j, got[j].T.ID, want[j].T.ID)
				}
			}
		}
		if ts%25 == 0 {
			if err := e.CheckInfluence(); err != nil {
				t.Fatalf("ts=%d: %v", ts, err)
			}
		}
	}
}

// TestFullWindowReplacement is the extreme churn case: every cycle replaces
// the whole window (r = N), forcing constant expiration of all results.
func TestFullWindowReplacement(t *testing.T) {
	const n = 50
	e := mustEngine(t, Options{Dims: 2, Window: window.Count(n), TargetCells: 64})
	idT, _ := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 5, Policy: TMA})
	idS, _ := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 5, Policy: SMA})
	gen := stream.NewGenerator(stream.IND, 2, 74)
	for ts := 0; ts < 30; ts++ {
		batch := gen.Batch(n, int64(ts))
		if _, err := e.Step(int64(ts), batch); err != nil {
			t.Fatal(err)
		}
		want := validate.TopK(batch, geom.NewLinear(1, 1), 5, nil)
		for _, id := range []QueryID{idT, idS} {
			got, _ := e.Result(id)
			for j := range want {
				if got[j].T.ID != want[j].T.ID {
					t.Fatalf("ts=%d query %d rank %d: p%d want p%d", ts, id, j, got[j].T.ID, want[j].T.ID)
				}
			}
		}
	}
}

// TestSingleCellGrid degenerates the index to one cell: everything falls
// back to scanning, results must still be exact.
func TestSingleCellGrid(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: window.Count(100), GridRes: 1})
	id, _ := e.Register(QuerySpec{F: geom.NewLinear(1, 2), K: 7, Policy: SMA})
	gen := stream.NewGenerator(stream.IND, 2, 75)
	var valid []*stream.Tuple
	for ts := 0; ts < 20; ts++ {
		batch := gen.Batch(15, int64(ts))
		if _, err := e.Step(int64(ts), batch); err != nil {
			t.Fatal(err)
		}
		valid = append(valid, batch...)
		if len(valid) > 100 {
			valid = valid[len(valid)-100:]
		}
		got, _ := e.Result(id)
		want := validate.TopK(valid, geom.NewLinear(1, 2), 7, nil)
		for j := range want {
			if got[j].T.ID != want[j].T.ID {
				t.Fatalf("ts=%d rank %d: p%d want p%d", ts, j, got[j].T.ID, want[j].T.ID)
			}
		}
	}
}

// TestOneDimensionalWorkspace: d=1 exercises the traversal's boundary
// handling (a single axis to step along).
func TestOneDimensionalWorkspace(t *testing.T) {
	e := mustEngine(t, Options{Dims: 1, Window: window.Count(80), TargetCells: 16})
	idInc, _ := e.Register(QuerySpec{F: geom.NewLinear(1), K: 4, Policy: SMA})
	idDec, _ := e.Register(QuerySpec{F: geom.NewLinear(-1), K: 4, Policy: TMA})
	gen := stream.NewGenerator(stream.IND, 1, 76)
	var valid []*stream.Tuple
	for ts := 0; ts < 25; ts++ {
		batch := gen.Batch(10, int64(ts))
		if _, err := e.Step(int64(ts), batch); err != nil {
			t.Fatal(err)
		}
		valid = append(valid, batch...)
		if len(valid) > 80 {
			valid = valid[len(valid)-80:]
		}
		for id, f := range map[QueryID]geom.ScoringFunction{idInc: geom.NewLinear(1), idDec: geom.NewLinear(-1)} {
			got, _ := e.Result(id)
			want := validate.TopK(valid, f, 4, nil)
			for j := range want {
				if got[j].T.ID != want[j].T.ID {
					t.Fatalf("ts=%d query %d rank %d: p%d want p%d", ts, id, j, got[j].T.ID, want[j].T.ID)
				}
			}
		}
	}
}

// TestEngineConfigProperty drives randomized engine configurations through
// short differential runs under testing/quick.
func TestEngineConfigProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := 1 + rng.Intn(3)
		n := 30 + rng.Intn(120)
		e, err := NewEngine(Options{Dims: dims, Window: window.Count(n), TargetCells: 1 + rng.Intn(300)})
		if err != nil {
			return false
		}
		qg := stream.NewQueryGenerator(stream.FuncMixed, dims, seed)
		spec := QuerySpec{F: qg.Next(), K: 1 + rng.Intn(10), Policy: Policy(rng.Intn(2))}
		id, err := e.Register(spec)
		if err != nil {
			return false
		}
		gen := stream.NewGenerator(stream.IND, dims, seed+1)
		var valid []*stream.Tuple
		for ts := 0; ts < 15; ts++ {
			batch := gen.Batch(rng.Intn(15), int64(ts))
			if _, err := e.Step(int64(ts), batch); err != nil {
				return false
			}
			valid = append(valid, batch...)
			if len(valid) > n {
				valid = valid[len(valid)-n:]
			}
			got, err := e.Result(id)
			if err != nil {
				return false
			}
			want := validate.TopK(valid, spec.F, spec.K, nil)
			if len(got) != len(want) {
				return false
			}
			for j := range want {
				if got[j].T.ID != want[j].T.ID {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateCoordinates floods one cell with identical coordinates so
// every comparison is a score tie resolved by arrival order.
func TestDuplicateCoordinates(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: window.Count(40), TargetCells: 64})
	idT, _ := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 5, Policy: TMA})
	idS, _ := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 5, Policy: SMA})
	var seq uint64
	var valid []*stream.Tuple
	for ts := 0; ts < 20; ts++ {
		batch := make([]*stream.Tuple, 10)
		for i := range batch {
			batch[i] = &stream.Tuple{ID: seq, Seq: seq, TS: int64(ts), Vec: geom.Vector{0.75, 0.75}}
			seq++
		}
		if _, err := e.Step(int64(ts), batch); err != nil {
			t.Fatal(err)
		}
		valid = append(valid, batch...)
		if len(valid) > 40 {
			valid = valid[len(valid)-40:]
		}
		want := validate.TopK(valid, geom.NewLinear(1, 1), 5, nil)
		for _, id := range []QueryID{idT, idS} {
			got, _ := e.Result(id)
			if len(got) != len(want) {
				t.Fatalf("ts=%d query %d: %d results want %d", ts, id, len(got), len(want))
			}
			for j := range want {
				if got[j].T.ID != want[j].T.ID {
					t.Fatalf("ts=%d query %d rank %d: p%d want p%d (tie-break broken)",
						ts, id, j, got[j].T.ID, want[j].T.ID)
				}
			}
		}
	}
}

// TestBoundaryCoordinates exercises tuples sitting exactly on cell and
// workspace boundaries (0, 1, and grid lines).
func TestBoundaryCoordinates(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: window.Count(64), GridRes: 4})
	id, _ := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 6, Policy: SMA})
	coordsList := []float64{0, 0.25, 0.5, 0.75, 1}
	var seq uint64
	var valid []*stream.Tuple
	for ts := 0; ts < 10; ts++ {
		var batch []*stream.Tuple
		for _, x := range coordsList {
			for _, y := range coordsList {
				batch = append(batch, &stream.Tuple{ID: seq, Seq: seq, TS: int64(ts), Vec: geom.Vector{x, y}})
				seq++
			}
		}
		if _, err := e.Step(int64(ts), batch); err != nil {
			t.Fatal(err)
		}
		valid = append(valid, batch...)
		if len(valid) > 64 {
			valid = valid[len(valid)-64:]
		}
		got, _ := e.Result(id)
		want := validate.TopK(valid, geom.NewLinear(1, 1), 6, nil)
		for j := range want {
			if got[j].T.ID != want[j].T.ID {
				t.Fatalf("ts=%d rank %d: p%d want p%d", ts, j, got[j].T.ID, want[j].T.ID)
			}
		}
	}
}

// TestManyQueriesShareCells registers many queries with near-identical
// functions so influence regions overlap heavily.
func TestManyQueriesShareCells(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: window.Count(200), TargetCells: 100})
	var ids []QueryID
	var fns []geom.ScoringFunction
	for i := 0; i < 40; i++ {
		f := geom.NewLinear(1, 1+float64(i)*0.001)
		id, err := e.Register(QuerySpec{F: f, K: 3, Policy: Policy(i % 2)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		fns = append(fns, f)
	}
	gen := stream.NewGenerator(stream.IND, 2, 77)
	var valid []*stream.Tuple
	for ts := 0; ts < 25; ts++ {
		batch := gen.Batch(20, int64(ts))
		if _, err := e.Step(int64(ts), batch); err != nil {
			t.Fatal(err)
		}
		valid = append(valid, batch...)
		if len(valid) > 200 {
			valid = valid[len(valid)-200:]
		}
	}
	for i, id := range ids {
		got, _ := e.Result(id)
		want := validate.TopK(valid, fns[i], 3, nil)
		for j := range want {
			if got[j].T.ID != want[j].T.ID {
				t.Fatalf("query %d rank %d: p%d want p%d", id, j, got[j].T.ID, want[j].T.ID)
			}
		}
	}
}
