package core

import (
	"math"
	"strings"
	"testing"

	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/validate"
	"topkmon/internal/window"
)

func TestQueriesSnapshot(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: window.Count(200), TargetCells: 100})
	thr := 1.7
	specs := []QuerySpec{
		{F: geom.NewLinear(1, 1), K: 5, Policy: TMA},
		{F: geom.NewLinear(1, 2), K: 8, Policy: SMA},
		{F: geom.NewLinear(2, 1), Threshold: &thr},
	}
	var ids []QueryID
	for _, s := range specs {
		id, err := e.Register(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	gen := stream.NewGenerator(stream.IND, 2, 50)
	for ts := 0; ts < 10; ts++ {
		if _, err := e.Step(int64(ts), gen.Batch(30, int64(ts))); err != nil {
			t.Fatal(err)
		}
	}

	infos := e.Queries()
	if len(infos) != 3 {
		t.Fatalf("snapshot has %d queries want 3", len(infos))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i].ID <= infos[i-1].ID {
			t.Fatalf("snapshot not ordered by id")
		}
	}

	tma, sma, thq := infos[0], infos[1], infos[2]
	if tma.Kind != "topk" || tma.ResultSize != 5 || tma.SkybandSize != 0 {
		t.Fatalf("TMA info wrong: %+v", tma)
	}
	if math.IsNaN(tma.TopScore) {
		t.Fatalf("TMA full result must expose a top score")
	}
	if sma.Kind != "topk" || sma.ResultSize != 8 || sma.SkybandSize < 8 {
		t.Fatalf("SMA info wrong: %+v", sma)
	}
	if thq.Kind != "threshold" || thq.TopScore != thr {
		t.Fatalf("threshold info wrong: %+v", thq)
	}
	res, _ := e.Result(ids[2])
	if thq.ResultSize != len(res) {
		t.Fatalf("threshold result size %d vs %d", thq.ResultSize, len(res))
	}
	for _, info := range infos {
		if info.InfluenceCells <= 0 {
			t.Fatalf("query %d reports no influence cells", info.ID)
		}
		if info.String() == "" {
			t.Fatalf("empty String()")
		}
	}
	if !strings.Contains(thq.String(), "threshold") {
		t.Fatalf("threshold String() missing kind: %s", thq.String())
	}

	// Influence cells from the snapshot must match the region computed
	// independently from the query's bound: cells whose maxscore reaches
	// the registration score of a top-k query, or strictly exceeds a
	// threshold.
	for _, info := range infos {
		bound := e.queries[info.ID].regScore
		if info.Kind == "threshold" {
			bound = math.Nextafter(*info.Spec.Threshold, math.Inf(1))
		}
		want := validate.InfluenceCells(e.Grid().NumCells(), e.Grid().Rect, info.Spec.F, bound, info.Spec.Constraint)
		if info.InfluenceCells != len(want) {
			t.Fatalf("query %d: snapshot cells %d vs independent region %d", info.ID, info.InfluenceCells, len(want))
		}
	}

	if _, err := e.QueryInfoFor(ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryInfoFor(9999); err == nil {
		t.Fatalf("unknown id must fail")
	}
}

func TestQueriesSnapshotUnderfull(t *testing.T) {
	e := mustEngine(t, Options{Dims: 2, Window: window.Count(100), TargetCells: 64})
	id, _ := e.Register(QuerySpec{F: geom.NewLinear(1, 1), K: 50, Policy: TMA})
	gen := stream.NewGenerator(stream.IND, 2, 51)
	if _, err := e.Step(0, gen.Batch(5, 0)); err != nil {
		t.Fatal(err)
	}
	info, err := e.QueryInfoFor(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.ResultSize != 5 {
		t.Fatalf("underfull result size=%d", info.ResultSize)
	}
	if !math.IsNaN(info.TopScore) {
		t.Fatalf("underfull query must report NaN top score, got %g", info.TopScore)
	}
}
