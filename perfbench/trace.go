package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"topkmon/internal/core"
	"topkmon/internal/pipeline"
	"topkmon/internal/recovery"
	"topkmon/internal/shard"
	"topkmon/internal/simd"
	"topkmon/internal/window"
	"topkmon/pkg/topkmon"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer started; Parent indexes the enclosing span
// (-1 for none) and Cycle is the cycle the call belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Cycle  int32  `json:"cycle"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the traced code paths.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, parent, cycle int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Cycle: cycle})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// add records a span whose endpoints were stamped elsewhere.
func (t *tracer) add(name string, start, end time.Time, parent, cycle int32) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Cycle: cycle})
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rung is one level of the layer ladder: the stack up to and including
// layer, with the median per-cycle time measured through it.
type rung struct {
	layer   string
	cycleMS float64
}

// ladderSelf turns the rungs' per-cycle medians, bottom rung first, into
// each layer's self time: its rung minus the rung below. The self times
// add up to the top rung's time.
func ladderSelf(rungs []rung) map[string]float64 {
	out := map[string]float64{}
	below := 0.0
	for _, r := range rungs {
		out[r.layer] = r.cycleMS - below
		below = r.cycleMS
	}
	return out
}

// perLayer lists the per-layer metrics every traced run reports.
var perLayer = []string{
	"topk.recomputes_per_cycle", "topk.cells_per_recompute", "topk.heap_ops_per_cycle",
	"skyband.avg_size",
	"qindex.influence_events_per_cycle", "qindex.register_us",
	"simd.block_ns_per_point_query",
	"grid.cells_walked_per_cycle", "grid.max_cell_bytes",
	"core.cycle_ms", "core.updates_per_cycle", "core.state_mb",
	"gc.allocs_per_tuple", "gc.bytes_per_tuple", "gc.cpu_frac",
	"shard.overhead_ms", "shard.imbalance",
	"recovery.step_overhead_ms", "recovery.checkpoint_ms", "recovery.wal_bytes_per_tuple",
	"pipeline.ingest_block_tail_ms", "pipeline.queue_high_water", "pipeline.overhead_ms",
	"loadgen.gen_ms_per_cycle", "loadgen.lag_tail_ms",
	"trace.overhead_ms",
}

// engineOptions mirror what topkmon.New builds for the workload.
func engineOptions(wl workload) core.Options {
	return core.Options{Dims: dims, Window: window.Count(wl.window), GridRes: wl.gridRes}
}

// gcCPU reads the cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// engineMetrics reports the counters of one synchronous rung's measured
// loop: Stats deltas, allocation per tuple and the GC share of CPU.
func engineMetrics(rep *report, mon syncMonitor, before, after topkmon.Stats, o loopObs, gcShare float64) {
	cycles := float64(len(o.cycleMS))
	per := func(d int64) float64 { return float64(d) / cycles }
	rec := after.Recomputes - before.Recomputes
	rep.set("topk.recomputes_per_cycle", per(rec), "count")
	cells := 0.0
	if rec > 0 {
		cells = float64(after.CellsProcessed-before.CellsProcessed) / float64(rec)
	}
	rep.set("topk.cells_per_recompute", cells, "count")
	rep.set("topk.heap_ops_per_cycle", per(after.HeapOps-before.HeapOps), "count")
	sky := 0.0
	if n := after.SkybandSamples - before.SkybandSamples; n > 0 {
		sky = float64(after.SkybandSizeSum-before.SkybandSizeSum) / float64(n)
	}
	rep.set("skyband.avg_size", sky, "count")
	rep.set("qindex.influence_events_per_cycle", per(after.InfluenceEvents-before.InfluenceEvents), "count")
	rep.set("grid.cells_walked_per_cycle", per(after.CellsWalked-before.CellsWalked), "count")
	rep.set("grid.max_cell_bytes", float64(after.MaxCellBytesHighWater), "B")
	rep.set("core.updates_per_cycle", per(after.ResultUpdates-before.ResultUpdates), "count")
	rep.set("core.state_mb", float64(mon.MemoryBytes())/(1<<20), "MB")
	rep.set("gc.allocs_per_tuple", float64(o.allocs)/float64(o.arrivals), "count")
	rep.set("gc.bytes_per_tuple", float64(o.allocBytes)/float64(o.arrivals), "B")
	rep.set("gc.cpu_frac", gcShare, "ratio")
	rep.set("loadgen.gen_ms_per_cycle", median(o.genMS), "ms")
}

// tracedLoop runs closedLoop with spans and, when report is set, reports
// the rung's engine counters, allocation and GC share. Every synchronous
// rung runs this same loop, so the rungs differ only in the stack below.
func tracedLoop(cs *closedSetup, wl workload, seed int64, dur time.Duration, tr *tracer, layer string, report bool, rep *report) loopObs {
	before := cs.mon.Stats()
	runtime.GC()
	gc0, cpu0 := gcCPU()
	o := closedLoop(cs, wl, rand.New(rand.NewSource(seed+5)), dur, nil, tr, layer, rep)
	gc1, cpu1 := gcCPU()
	if report {
		share := 0.0
		if cpu1 > cpu0 {
			share = (gc1 - gc0) / (cpu1 - cpu0)
		}
		engineMetrics(rep, cs.mon, before, cs.mon.Stats(), o, share)
	}
	return o
}

// simdBlock times simd.DotBlockMulti on one arrival block against the
// workload's weight rows, in chunks of at most 1024 rows, and returns the
// median nanoseconds per (point, query) score.
func simdBlock(wl workload, seed int64) float64 {
	in := newInputs(wl, seed)
	batch, _ := in.batch(wl.perCycle)
	coords := make([]float64, 0, len(batch)*dims)
	for _, t := range batch {
		coords = append(coords, t.Vec...)
	}
	w := make([]float64, 0, wl.queries*dims)
	for i := 0; i < wl.queries; i++ {
		w = append(w, in.query().w...)
	}
	const chunk = 1024
	dst := make([]float64, chunk*len(batch))
	var per []float64
	for rep := 0; rep < 7; rep++ {
		t := time.Now()
		for lo := 0; lo < wl.queries; lo += chunk {
			hi := min(lo+chunk, wl.queries)
			simd.DotBlockMulti(dst[:(hi-lo)*len(batch)], coords, w[lo*dims:hi*dims], dims)
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(len(batch)*wl.queries))
	}
	return median(per)
}

// runTraced replays the workload through the layer ladder and reports the
// per-layer metrics.
func runTraced(wl workload, seed int64, dur time.Duration, workdir string, rep *report) error {
	tr := newTracer()
	rep.set("simd.block_ns_per_point_query", simdBlock(wl, seed), "ns")
	rep.note("simd leg: %s", simd.ActiveLeg())
	var err error
	if wl.openLoop {
		err = durableLadder(wl, seed, dur, workdir, tr, rep)
	} else {
		err = engineRung(wl, seed, dur, tr, rep)
	}
	if err != nil {
		return err
	}
	self := selfTimes(tr.spans)
	for _, name := range slices.Sorted(maps.Keys(self)) {
		rep.note("self time %-22s %10.1fms", name, ms(self[name]))
	}
	path := filepath.Join(workdir, fmt.Sprintf("trace-%s-%d.jsonl", wl.name, seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.note("spans: %d written to %s", len(tr.spans), path)
	return nil
}

// engineRung measures a synchronous workload on the bare engine: half the
// run untraced, then half traced, whose difference is the tracing
// overhead. Layers above the engine are not in these workloads and report
// zero.
func engineRung(wl workload, seed int64, dur time.Duration, tr *tracer, rep *report) error {
	build := func() (syncMonitor, error) { return core.NewEngine(engineOptions(wl)) }
	cs, _, err := setupClosed(wl, seed, build, rep)
	if err != nil {
		return err
	}
	defer cs.mon.Close()
	runtime.GC()
	plain := closedLoop(cs, wl, rand.New(rand.NewSource(seed+5)), dur/2, nil, nil, "", rep)
	o := tracedLoop(cs, wl, seed, dur/2, tr, "core", true, rep)
	rep.set("core.cycle_ms", median(o.cycleMS), "ms")
	rep.set("trace.overhead_ms", median(o.cycleMS)-median(plain.cycleMS), "ms")
	regMS := cs.regMS
	if wl.churn > 0 {
		regMS = append(plain.regMS, o.regMS...)
	}
	rep.set("qindex.register_us", 1000*median(regMS), "us")
	for _, name := range []string{"shard.overhead_ms", "shard.imbalance", "recovery.step_overhead_ms",
		"recovery.checkpoint_ms", "recovery.wal_bytes_per_tuple", "pipeline.ingest_block_tail_ms",
		"pipeline.queue_high_water", "pipeline.overhead_ms", "loadgen.lag_tail_ms"} {
		rep.set(name, 0, unitOf(name))
	}
	checkResults(cs.live, cs.win.tuples(), wl.checkSample, seed, cs.mon.Result, rep)
	return nil
}

// unitOf gives the units of the per-layer metrics a closed-loop run
// reports as zero.
func unitOf(name string) string {
	switch name {
	case "shard.imbalance":
		return "ratio"
	case "recovery.wal_bytes_per_tuple":
		return "B"
	case "pipeline.queue_high_water":
		return "batches"
	}
	return "ms"
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// durableLadder replays the durable workload's seeded batches through the
// stacks topkmon.New assembles, one layer more on each rung: engine;
// shards over engines; the checkpoint guard over the shards; the pipeline
// over the guard. The synchronous rungs run closed loops of Step; the
// pipeline rung and the untraced full stack run the workload's open loop.
// Each layer's self time is its rung's median minus the rung below.
func durableLadder(wl workload, seed int64, dur time.Duration, workdir string, tr *tracer, rep *report) error {
	// The open-loop phases get more of the run: at the workload's rate
	// they see far fewer cycles than the closed loops do.
	syncPhase, openPhase := dur*3/20, dur*11/40
	opts := engineOptions(wl)
	var rungs []rung

	// Rung 1: the bare engine.
	cs, _, err := setupClosed(wl, seed, func() (syncMonitor, error) { return core.NewEngine(opts) }, rep)
	if err != nil {
		return err
	}
	o := tracedLoop(cs, wl, seed, syncPhase, tr, "core", false, rep)
	rungs = append(rungs, rung{"core", median(o.cycleMS)})
	rep.set("qindex.register_us", 1000*median(cs.regMS), "us")
	checkResults(cs.live, cs.win.tuples(), 0, seed, cs.mon.Result, rep)
	cs.mon.Close()

	// Rung 2: shards over engines.
	var sh *shard.Sharded
	cs, _, err = setupClosed(wl, seed, func() (syncMonitor, error) {
		s, err := shard.NewWithConfig(opts, wl.shards, shard.Config{})
		sh = s
		return s, err
	}, rep)
	if err != nil {
		return err
	}
	o = tracedLoop(cs, wl, seed, syncPhase, tr, "shard", false, rep)
	rungs = append(rungs, rung{"shard", median(o.cycleMS)})
	loads := sh.ShardLoads()
	var maxNS, sumNS float64
	for _, l := range loads {
		sumNS += float64(l.EWMACycleNS)
		maxNS = max(maxNS, float64(l.EWMACycleNS))
	}
	rep.set("shard.imbalance", maxNS/(sumNS/float64(len(loads))), "ratio")
	checkResults(cs.live, cs.win.tuples(), 0, seed, cs.mon.Result, rep)
	cs.mon.Close()

	// Rung 3: the checkpoint guard over the shards, stepped synchronously.
	dir, err := os.MkdirTemp(workdir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var guard *recovery.Guard
	cs, _, err = setupClosed(wl, seed, func() (syncMonitor, error) {
		s, err := shard.NewWithConfig(opts, wl.shards, shard.Config{})
		if err != nil {
			return nil, err
		}
		g, err := recovery.NewGuard(s, dir, recovery.GuardOptions{Every: wl.ckptEvery, Sync: recovery.SyncNone})
		if err != nil {
			s.Close()
			return nil, err
		}
		guard = g
		return g, nil
	}, rep)
	if err != nil {
		return err
	}
	// The engine counters, allocation and GC share come from this rung,
	// the whole synchronous stack.
	o = tracedLoop(cs, wl, seed, syncPhase, tr, "recovery", true, rep)
	rungs = append(rungs, rung{"recovery", median(o.cycleMS)})
	rep.set("recovery.wal_bytes_per_tuple", walGrowth(cs, guard, dir, wl, rep), "B")
	var ckptMS []float64
	for i := 0; i < 5; i++ {
		sp := tr.begin("recovery.Checkpoint", -1, -1)
		t := time.Now()
		err := guard.Checkpoint()
		ckptMS = append(ckptMS, ms(time.Since(t)))
		tr.end(sp)
		rep.op(err)
	}
	rep.set("recovery.checkpoint_ms", median(ckptMS), "ms")
	checkResults(cs.live, cs.win.tuples(), 0, seed, cs.mon.Result, rep)
	cs.mon.Close()

	// Rung 4: the pipeline over the guard, driven open loop.
	s, _, err := setupOpen(wl, seed, workdir, func(dir string) (asyncMonitor, error) {
		sm, err := shard.NewWithConfig(opts, wl.shards, shard.Config{})
		if err != nil {
			return nil, err
		}
		g, err := recovery.NewGuard(sm, dir, recovery.GuardOptions{Every: wl.ckptEvery, Sync: recovery.SyncNone})
		if err != nil {
			sm.Close()
			return nil, err
		}
		return pipeline.New(g, pipeline.Options{Depth: wl.pipeDepth, DropLog: g}), nil
	}, rep)
	if err != nil {
		return err
	}
	defer os.RemoveAll(s.dir)
	res := driveOpen(s, wl, seed, openPhase, nil, tr, rep)
	rep.attempted += len(res.recv)
	rep.failed += res.undelivered
	rungs = append(rungs, rung{"pipeline", median(res.latMS)})
	rep.set("pipeline.ingest_block_tail_ms", summarize(res.blockMS).tail, "ms")
	rep.set("pipeline.queue_high_water", float64(res.highWater), "batches")
	rep.set("loadgen.lag_tail_ms", summarize(res.lagMS).tail, "ms")

	// The untraced full stack, as the end-to-end run builds it.
	u, _, err := setupOpen(wl, seed, workdir, func(dir string) (asyncMonitor, error) {
		return topkmon.New(dims, durableOptions(wl, dir)...)
	}, rep)
	if err != nil {
		return err
	}
	defer os.RemoveAll(u.dir)
	plain := driveOpen(u, wl, seed, openPhase, nil, nil, rep)
	rep.attempted += len(plain.recv)
	rep.failed += plain.undelivered

	self := ladderSelf(rungs)
	rep.set("core.cycle_ms", self["core"], "ms")
	rep.set("shard.overhead_ms", self["shard"], "ms")
	rep.set("recovery.step_overhead_ms", self["recovery"], "ms")
	rep.set("pipeline.overhead_ms", self["pipeline"], "ms")
	top, untraced := rungs[len(rungs)-1].cycleMS, median(plain.latMS)
	rep.set("trace.overhead_ms", top-untraced, "ms")
	rep.note("ladder: core %.3f + shard %.3f + recovery %.3f + pipeline %.3f = %.3fms traced; untraced full stack %.3fms; tracing overhead %.3fms",
		self["core"], self["shard"], self["recovery"], self["pipeline"], top, untraced, top-untraced)
	return nil
}

// walGrowth steps the guard rung ten more cycles outside any timed span
// and returns the checkpoint directory's growth per arrival, counting only
// cycles that did not checkpoint (a checkpoint rotates the log).
func walGrowth(cs *closedSetup, guard *recovery.Guard, dir string, wl workload, rep *report) float64 {
	var bytes, tuples int64
	for i := 0; i < 10; i++ {
		batch, ts := cs.in.batch(wl.perCycle)
		epoch, size := guard.Epoch(), dirBytes(dir)
		_, err := cs.mon.Step(ts, batch)
		rep.op(err)
		cs.win.push(batch)
		if guard.Epoch() == epoch {
			bytes += dirBytes(dir) - size
			tuples += int64(len(batch))
		}
	}
	if tuples == 0 {
		return 0
	}
	return float64(bytes) / float64(tuples)
}
