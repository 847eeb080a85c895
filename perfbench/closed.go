package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"topkmon/pkg/topkmon"
)

// setupReps is how many times a run builds its monitor from scratch;
// setup_s is the median, and the last build is the one measured.
const setupReps = 5

// syncMonitor is the synchronous surface the closed loop drives. The
// facade monitor and every synchronous rung of the traced ladder
// (core.Engine, shard.Sharded, recovery.Guard) implement it.
type syncMonitor interface {
	Register(topkmon.QuerySpec) (topkmon.QueryID, error)
	Unregister(topkmon.QueryID) error
	Step(int64, []*topkmon.Tuple) ([]topkmon.Update, error)
	Result(topkmon.QueryID) ([]topkmon.Entry, error)
	Stats() topkmon.Stats
	MemoryBytes() int64
	Close() error
}

// closedSetup is a prefilled monitor with its queries registered.
type closedSetup struct {
	mon  syncMonitor
	in   *inputs
	win  *ring
	live []liveQuery
	// regMS holds the set-up's Register latencies.
	regMS []float64
}

// facadeOptions are the topkmon options of a synchronous workload.
func facadeOptions(wl workload) []topkmon.Option {
	opts := []topkmon.Option{topkmon.WithCountWindow(wl.window), topkmon.WithPolicy(wl.policy)}
	if wl.gridRes > 0 {
		opts = append(opts, topkmon.WithGridRes(wl.gridRes))
	}
	return opts
}

// prefillBatches generates the batches that fill the window once.
func prefillBatches(in *inputs, wl workload) (batches [][]*topkmon.Tuple, ts []int64) {
	for n := 0; n < wl.window; n += wl.perCycle {
		b, t := in.batch(wl.perCycle)
		batches = append(batches, b)
		ts = append(ts, t)
	}
	return batches, ts
}

// setupClosed builds a monitor with build, fills its window and registers
// the workload's queries (and the sentinel, when the workload has one).
// The returned duration covers the build, prefill and registration;
// generation and the collection between prefill and registration (see
// settle) are excluded.
func setupClosed(wl workload, seed int64, build func() (syncMonitor, error), rep *report) (*closedSetup, time.Duration, error) {
	in := newInputs(wl, seed)
	batches, ts := prefillBatches(in, wl)
	qs := make([]query, wl.queries, wl.queries+1)
	for i := range qs {
		qs[i] = in.query()
	}
	if in.markers {
		qs = append(qs, sentinelQuery())
	}
	cs := &closedSetup{in: in, win: newRing(wl.window), live: make([]liveQuery, 0, len(qs))}
	start := time.Now()
	mon, err := build()
	if err != nil {
		return nil, 0, err
	}
	cs.mon = mon
	for i, b := range batches {
		_, err := mon.Step(ts[i], b)
		rep.op(err)
		if err != nil {
			mon.Close()
			return nil, 0, fmt.Errorf("prefill: %w", err)
		}
		cs.win.push(b)
	}
	took := time.Since(start)
	settle()
	start = time.Now()
	for _, q := range qs {
		t := time.Now()
		id, err := mon.Register(q.spec(wl.policy))
		cs.regMS = append(cs.regMS, ms(time.Since(t)))
		rep.op(err)
		if err != nil {
			mon.Close()
			return nil, 0, fmt.Errorf("register: %w", err)
		}
		cs.live = append(cs.live, liveQuery{id, q})
	}
	return cs, took + time.Since(start), nil
}

// settle collects the prefill's garbage before registration starts, so
// that Register latencies are not charged with a collection the prefill
// made due.
func settle() { runtime.GC() }

// setupRepeated runs setup setupReps times, reports setup_s as the median
// and returns the last set-up.
func setupRepeated[S any](setup func() (S, time.Duration, error), discard func(S), rep *report) (S, error) {
	var cur S
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(cur)
			runtime.GC()
		}
		s, d, err := setup()
		if err != nil {
			return cur, err
		}
		cur = s
		secs = append(secs, d.Seconds())
	}
	rep.set("setup_s", median(secs), "s")
	rep.note("setup: %d builds, median %.3fs of %v", len(secs), median(secs), secs)
	return cur, nil
}

// loopObs is what a closed loop observed.
type loopObs struct {
	cycleMS, regMS, readMS, genMS []float64
	busy                          time.Duration
	arrivals                      int
	allocs, allocBytes            uint64
}

// closedLoop drives cs.mon for dur: per cycle one client generates a batch
// (timed apart), applies the workload's churn, calls Step and reads
// random live queries. With tr non-nil it records
// spans named after layer and reads runtime.MemStats around each Step.
func closedLoop(cs *closedSetup, wl workload, rng *rand.Rand, dur time.Duration,
	heap *heapSampler, tr *tracer, layer string, rep *report) loopObs {
	var o loopObs
	var before, after runtime.MemStats
	start := time.Now()
	for cycle := int32(0); time.Since(start) < dur; cycle++ {
		g := tr.begin("loadgen.gen", -1, cycle)
		t := time.Now()
		batch, ts := cs.in.batch(wl.perCycle)
		fresh := make([]query, wl.churn)
		for i := range fresh {
			fresh[i] = cs.in.query()
		}
		o.genMS = append(o.genMS, ms(time.Since(t)))
		tr.end(g)

		root := tr.begin("cycle", -1, cycle)
		for _, q := range fresh {
			// Churn retires the oldest query; workloads with a sentinel
			// have no churn.
			sp := tr.begin(layer+".Unregister", root, cycle)
			rep.op(cs.mon.Unregister(cs.live[0].id))
			tr.end(sp)
			cs.live = cs.live[1:]
			sp = tr.begin(layer+".Register", root, cycle)
			t := time.Now()
			id, err := cs.mon.Register(q.spec(wl.policy))
			o.regMS = append(o.regMS, ms(time.Since(t)))
			tr.end(sp)
			rep.op(err)
			if err == nil {
				cs.live = append(cs.live, liveQuery{id, q})
			}
		}

		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		sp := tr.begin(layer+".Step", root, cycle)
		t = time.Now()
		_, err := cs.mon.Step(ts, batch)
		d := time.Since(t)
		tr.end(sp)
		if tr != nil {
			runtime.ReadMemStats(&after)
			o.allocs += after.Mallocs - before.Mallocs
			o.allocBytes += after.TotalAlloc - before.TotalAlloc
		}
		rep.op(err)
		o.busy += d
		o.cycleMS = append(o.cycleMS, ms(d))
		o.arrivals += len(batch)
		cs.win.push(batch)

		for r := 0; r < wl.reads; r++ {
			id := cs.live[rng.Intn(len(cs.live))].id
			sp := tr.begin(layer+".Result", root, cycle)
			t := time.Now()
			_, err := cs.mon.Result(id)
			o.readMS = append(o.readMS, ms(time.Since(t)))
			tr.end(sp)
			rep.op(err)
		}
		tr.end(root)
		if heap != nil {
			heap.sample()
		}
	}
	return o
}

// runClosed measures a synchronous workload end to end through the
// topkmon facade.
func runClosed(wl workload, seed int64, dur time.Duration, rep *report) error {
	var setupRegMS []float64
	build := func() (syncMonitor, error) { return topkmon.New(dims, facadeOptions(wl)...) }
	cs, err := setupRepeated(func() (*closedSetup, time.Duration, error) {
		cs, d, err := setupClosed(wl, seed, build, rep)
		if err == nil {
			setupRegMS = append(setupRegMS, cs.regMS...)
		}
		return cs, d, err
	}, func(cs *closedSetup) { cs.mon.Close() }, rep)
	if err != nil {
		return err
	}
	defer cs.mon.Close()
	heap := newHeapSampler()
	runtime.GC()
	o := closedLoop(cs, wl, rand.New(rand.NewSource(seed+5)), dur, heap, nil, "", rep)

	rep.set("tuples_per_s", float64(o.arrivals)/o.busy.Seconds(), "1/s")
	rep.timing("cycle", o.cycleMS)
	if wl.churn == 0 {
		// Without churn the workload's registrations are the set-ups',
		// each on a full window.
		o.regMS = setupRegMS
	}
	rep.timing("register", o.regMS)
	rep.timing("read", o.readMS)
	rep.set("peak_heap_mb", heap.peakMB(), "MB")
	rep.note("closed loop: %d cycles, %d arrivals in %.2fs of Step time", len(o.cycleMS), o.arrivals, o.busy.Seconds())
	checkResults(cs.live, cs.win.tuples(), wl.checkSample, seed, cs.mon.Result, rep)
	return nil
}
