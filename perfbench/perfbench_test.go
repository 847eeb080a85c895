package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"topkmon/internal/core"
	"topkmon/internal/pipeline"
	"topkmon/internal/stream"
	"topkmon/pkg/topkmon"
)

func TestSummarizeTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{1000, 99}, {999, 98}, {500, 98}, {499, 95}, {200, 95}, {100, 90}, {50, 75}, {5, 50},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted input
		}
		s := summarize(xs)
		if s.tailPct != tc.wantPct {
			t.Errorf("n=%d: tail percentile %g, want %g", tc.n, s.tailPct, tc.wantPct)
		}
		beyond := 0
		for _, x := range xs {
			if x > s.tail {
				beyond++
			}
		}
		if tc.n >= 40 && beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond p%g, want >= %d", tc.n, beyond, s.tailPct, minBeyond)
		}
		if want := float64(rank(50, tc.n) + 1); s.p50 != want {
			t.Errorf("n=%d: p50 %g, want %g", tc.n, s.p50, want)
		}
	}
	if s := summarize(nil); s.n != 0 || s.tail != 0 {
		t.Errorf("empty input summarized to %+v", s)
	}
}

func TestLadderSelfTimesAddUpToTopRung(t *testing.T) {
	rungs := []rung{{"core", 2.0}, {"shard", 2.5}, {"recovery", 2.75}, {"pipeline", 4.0}}
	self := ladderSelf(rungs)
	want := map[string]float64{"core": 2.0, "shard": 0.5, "recovery": 0.25, "pipeline": 1.25}
	sum := 0.0
	for layer, w := range want {
		if math.Abs(self[layer]-w) > 1e-12 {
			t.Errorf("%s self time %g, want %g", layer, self[layer], w)
		}
		sum += self[layer]
	}
	if math.Abs(sum-4.0) > 1e-12 {
		t.Errorf("self times sum to %g, want the top rung's 4", sum)
	}
}

func TestSpanSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "cycle", Start: 0, End: 100, Parent: -1},
		{Name: "core.Step", Start: 10, End: 70, Parent: 0},
		{Name: "core.Result", Start: 80, End: 90, Parent: 0},
		{Name: "cycle", Start: 100, End: 150, Parent: -1},
		{Name: "core.Step", Start: 100, End: 140, Parent: 3},
	}
	got := selfTimes(spans)
	for name, want := range map[string]time.Duration{"cycle": 30 + 10, "core.Step": 100, "core.Result": 10} {
		if got[name] != want {
			t.Errorf("%s self time %v, want %v", name, got[name], want)
		}
	}
}

// tinyDurable is a small open-loop workload for tests.
func tinyDurable() workload {
	return workload{
		name: "tiny-durable", dist: topkmon.IND, window: 1000, perCycle: 10, queries: 5, k: 3,
		policy: topkmon.SMA, openLoop: true, rate: 100, shards: 2, pipeDepth: 4, ckptEvery: 50, reads: 1,
	}
}

// stallEngine is an engine whose Step sleeps once, on the cycle whose first
// arrival carries the target id.
type stallEngine struct {
	*core.Engine
	target atomic.Uint64
	stall  time.Duration
}

func (e *stallEngine) Step(now int64, arrivals []*stream.Tuple) ([]core.Update, error) {
	if len(arrivals) > 0 && arrivals[0].ID == e.target.Load() {
		time.Sleep(e.stall)
	}
	return e.Engine.Step(now, arrivals)
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	wl := tinyDurable()
	const stall = 300 * time.Millisecond
	const stalled = 10 // measured batch index that stalls
	var eng *stallEngine
	rep := newReport()
	s, _, err := setupOpen(wl, 1, t.TempDir(), func(string) (asyncMonitor, error) {
		e, err := core.NewEngine(engineOptions(wl))
		if err != nil {
			return nil, err
		}
		eng = &stallEngine{Engine: e, stall: stall}
		eng.target.Store(math.MaxUint64)
		return pipeline.New(eng, pipeline.Options{Depth: wl.pipeDepth}), nil
	}, rep)
	if err != nil {
		t.Fatal(err)
	}
	eng.target.Store(s.in.nextID + stalled*uint64(wl.perCycle))
	res := driveOpen(s, wl, 1, time.Second, nil, nil, rep)
	if res.undelivered != 0 || rep.failed != 0 || rep.mismatched != 0 {
		t.Fatalf("undelivered %d, failed %d, mismatched %d", res.undelivered, rep.failed, rep.mismatched)
	}
	slot := time.Second / time.Duration(wl.rate)
	// Every batch due during the stall waits for it to end. With a depth-4
	// queue the sender itself blocks, so only due-time accounting charges
	// the later batches the full wait.
	for j := stalled; j < stalled+int(stall/slot)-2; j++ {
		lat := res.recv[j].Sub(res.due[j])
		floor := stall - time.Duration(j-stalled)*slot - 2*slot
		if lat < floor {
			t.Errorf("batch %d: latency %v from due time, want at least %v", j, lat, floor)
		}
	}
	if lag := summarize(res.lagMS); lag.tail < ms(stall/2) {
		t.Errorf("sender lag tail %.1fms: the stall should have held the sender back", lag.tail)
	}
}

func TestCheckerCatchesCorruptedResult(t *testing.T) {
	wl := workload{dist: topkmon.IND, window: 500, perCycle: 50, queries: 3, k: 5}
	in := newInputs(wl, 9)
	win := newRing(wl.window)
	for i := 0; i < 12; i++ {
		b, _ := in.batch(wl.perCycle)
		win.push(b)
	}
	tuples := win.tuples()
	if len(tuples) != wl.window {
		t.Fatalf("window holds %d tuples, want %d", len(tuples), wl.window)
	}
	live := []liveQuery{{1, in.query()}, {2, in.query()}, {3, in.query()}}
	results := map[topkmon.QueryID][]topkmon.Entry{}
	for _, lq := range live {
		results[lq.id] = reference(lq.q, tuples)
	}
	result := func(id topkmon.QueryID) ([]topkmon.Entry, error) { return results[id], nil }

	rep := newReport()
	if n := checkResults(live, tuples, 0, 1, result, rep); n != 0 {
		t.Fatalf("faithful results: %d mismatches", n)
	}
	for name, corrupt := range map[string]func([]topkmon.Entry) []topkmon.Entry{
		"swapped": func(e []topkmon.Entry) []topkmon.Entry { e[0], e[1] = e[1], e[0]; return e },
		"dropped": func(e []topkmon.Entry) []topkmon.Entry { return e[:len(e)-1] },
		"rescored": func(e []topkmon.Entry) []topkmon.Entry {
			e[2].Score = math.Nextafter(e[2].Score, 0)
			return e
		},
		"stale": func(e []topkmon.Entry) []topkmon.Entry { e[4].T = tuples[0]; return e },
	} {
		good := reference(live[1].q, tuples)
		results[2] = corrupt(append([]topkmon.Entry(nil), good...))
		rep := newReport()
		if n := checkResults(live, tuples, 0, 1, result, rep); n != 1 || rep.mismatched != 1 {
			t.Errorf("%s: %d mismatches, want 1", name, n)
		}
		results[2] = good
	}

	failing := func(topkmon.QueryID) ([]topkmon.Entry, error) { return nil, errors.New("boom") }
	rep = newReport()
	checkResults(live, tuples, 2, 1, failing, rep)
	if rep.attempted != 2 || rep.failed != 2 {
		t.Errorf("failed reads: attempted %d failed %d, want 2 and 2", rep.attempted, rep.failed)
	}
}

func TestReferenceThresholdAndTies(t *testing.T) {
	mk := func(id uint64, v ...float64) *topkmon.Tuple { return &topkmon.Tuple{ID: id, Seq: id, Vec: v} }
	win := []*topkmon.Tuple{mk(0, 0.5, 0.5), mk(1, 0.9, 0.1), mk(2, 0.1, 0.9), mk(3, 0.2, 0.2)}
	// Equal scores: the later arrival ranks first.
	got := reference(query{w: []float64{1, 1}, k: 2}, win)
	if len(got) != 2 || got[0].T.ID != 2 || got[1].T.ID != 1 {
		t.Errorf("top-2 with ties: got %v", got)
	}
	got = reference(query{w: []float64{1, 0}, isThresh: true, threshold: 0.3}, win)
	if len(got) != 2 || got[0].T.ID != 1 || got[1].T.ID != 0 {
		t.Errorf("threshold: got %v", got)
	}
}

// tinyClosed is a small closed-loop workload with churn for tests.
func tinyClosed() workload {
	return workload{
		name: "tiny-closed", dist: topkmon.ANT, window: 2000, perCycle: 100, queries: 20, k: 5,
		policy: topkmon.TMA, churn: 2, reads: 2,
	}
}

func TestRunsReportEveryMetric(t *testing.T) {
	closed := tinyClosed()
	for _, tc := range []struct {
		wl    workload
		trace bool
		want  []string
	}{
		{closed, false, endToEnd},
		{closed, true, perLayer},
		{tinyDurable(), false, endToEnd},
		{tinyDurable(), true, perLayer},
	} {
		rep := newReport()
		var err error
		dir := t.TempDir()
		switch {
		case tc.trace:
			err = runTraced(tc.wl, 3, 400*time.Millisecond, dir, rep)
		case tc.wl.openLoop:
			err = runOpen(tc.wl, 3, 400*time.Millisecond, dir, rep)
		default:
			err = runClosed(tc.wl, 3, 400*time.Millisecond, rep)
		}
		if err != nil {
			t.Fatalf("%s trace=%v: %v", tc.wl.name, tc.trace, err)
		}
		if rep.failed != 0 || rep.mismatched != 0 || rep.attempted == 0 {
			t.Errorf("%s trace=%v: attempted %d failed %d mismatched %d", tc.wl.name, tc.trace, rep.attempted, rep.failed, rep.mismatched)
		}
		for _, name := range tc.want {
			if _, ok := rep.metrics[name]; !ok {
				t.Errorf("%s trace=%v: metric %s missing", tc.wl.name, tc.trace, name)
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json, which the runner
// reads, in step with the workloads and metrics this program implements.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		if w.Why == "" {
			t.Errorf("workload %s: no reason recorded", w.Name)
		}
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the program has %d", names, len(workloads))
	}
	if _, err := findWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	units := map[string]string{}
	for _, tc := range []struct {
		listed []struct{ Name, Unit string }
		want   []string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var got []string
		for _, m := range tc.listed {
			got = append(got, m.Name)
			units[m.Name] = m.Unit
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("BENCHMARK.json lists %v, the program reports %v", got, tc.want)
		}
	}
	rep := newReport()
	if err := runClosed(tinyClosed(), 3, 200*time.Millisecond, rep); err != nil {
		t.Fatal(err)
	}
	if err := runTraced(tinyDurable(), 3, 400*time.Millisecond, t.TempDir(), rep); err != nil {
		t.Fatal(err)
	}
	for name, m := range rep.metrics {
		if u, ok := units[name]; ok && u != m.Unit {
			t.Errorf("%s: reported in %s, BENCHMARK.json says %s", name, m.Unit, u)
		}
	}
}

func TestPubsubMatchesArriveOnSchedule(t *testing.T) {
	wl, err := findWorkload("pubsub-churn")
	if err != nil {
		t.Fatal(err)
	}
	in := newInputs(wl, 4)
	for c, v := range in.matches {
		if m := weightedMean(in.bases[c], v); m <= wl.thresholdFrac+matchMargin {
			t.Errorf("cluster %d: match point's weighted mean %.4f does not clear the jitter margin", c, m)
		}
	}
	for cycle := 1; cycle <= 3*wl.matchEvery; cycle++ {
		batch, _ := in.batch(wl.perCycle)
		for i, tup := range batch {
			planted := i == 0 && cycle%wl.matchEvery == 0
			if in.nearMatch(tup.Vec) != planted {
				t.Fatalf("cycle %d tuple %d: near a threshold %v, planted match %v", cycle, i, !planted, planted)
			}
		}
	}
}
