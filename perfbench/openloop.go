package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"topkmon/pkg/topkmon"
)

// asyncMonitor is the pipelined surface the open loop drives: the facade
// monitor under WithPipeline and the ladder's pipeline rung implement it.
type asyncMonitor interface {
	Ingest(int64, []*topkmon.Tuple) error
	Register(topkmon.QuerySpec) (topkmon.QueryID, error)
	Result(topkmon.QueryID) ([]topkmon.Entry, error)
	Updates() <-chan []topkmon.Update
	Flush() error
	Stats() topkmon.Stats
	Close() error
}

// openSetup is a prefilled pipelined monitor with its queries and the
// sentinel registered.
type openSetup struct {
	mon      asyncMonitor
	in       *inputs
	win      *ring
	live     []liveQuery
	sentinel liveQuery
	dir      string
	regMS    []float64
}

func (s *openSetup) close() {
	s.mon.Close()
	os.RemoveAll(s.dir)
}

// durableOptions are the topkmon options of the open-loop stack.
func durableOptions(wl workload, dir string) []topkmon.Option {
	return []topkmon.Option{
		topkmon.WithCountWindow(wl.window), topkmon.WithPolicy(wl.policy),
		topkmon.WithShards(wl.shards), topkmon.WithPipeline(wl.pipeDepth),
		topkmon.WithCheckpoint(dir, wl.ckptEvery),
	}
}

// setupOpen builds a durable stack with build in a fresh checkpoint
// directory under workdir, fills its window through Ingest and registers
// the queries and the sentinel.
func setupOpen(wl workload, seed int64, workdir string, build func(dir string) (asyncMonitor, error), rep *report) (*openSetup, time.Duration, error) {
	in := newInputs(wl, seed)
	batches, ts := prefillBatches(in, wl)
	qs := make([]query, wl.queries)
	for i := range qs {
		qs[i] = in.query()
	}
	dir, err := os.MkdirTemp(workdir, "ckpt-")
	if err != nil {
		return nil, 0, err
	}
	s := &openSetup{in: in, win: newRing(wl.window), dir: dir}
	start := time.Now()
	s.mon, err = build(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	fail := func(err error) (*openSetup, time.Duration, error) {
		s.close()
		return nil, 0, err
	}
	// No query is registered yet, so prefill cycles deliver nothing.
	for i, b := range batches {
		err := s.mon.Ingest(ts[i], b)
		rep.op(err)
		if err != nil {
			return fail(fmt.Errorf("prefill: %w", err))
		}
		s.win.push(b)
	}
	// Registration is timed from an empty queue: the prefill's queued
	// cycles finish here, and its garbage is collected, outside the clock.
	err = s.mon.Flush()
	rep.op(err)
	if err != nil {
		return fail(fmt.Errorf("prefill: %w", err))
	}
	took := time.Since(start)
	settle()
	start = time.Now()
	for _, q := range append(qs, sentinelQuery()) {
		t := time.Now()
		id, err := s.mon.Register(q.spec(wl.policy))
		if !q.sentinel {
			s.regMS = append(s.regMS, ms(time.Since(t)))
		}
		rep.op(err)
		if err != nil {
			return fail(fmt.Errorf("register: %w", err))
		}
		if q.sentinel {
			s.sentinel = liveQuery{id, q}
		} else {
			s.live = append(s.live, liveQuery{id, q})
		}
	}
	return s, took + time.Since(start), nil
}

// openResult is what one open-loop run observed, before reduction.
type openResult struct {
	due, recv       []time.Time
	lagMS, blockMS  []float64
	readMS, genMS   []float64
	latMS           []float64
	arrivals        int
	highWater       int64
	undelivered     int
	first, lastRecv time.Time
}

// driveOpen sends one batch every 1/rate seconds for dur on one goroutine,
// reading random live queries after each send, while a second
// goroutine drains Updates() and stamps the arrival of each cycle's
// marker. Latency runs from each batch's due time, so a stall also
// charges the batches queued behind it.
func driveOpen(s *openSetup, wl workload, seed int64, dur time.Duration, heap *heapSampler, tr *tracer, rep *report) openResult {
	slot := time.Second / time.Duration(wl.rate)
	n := int(dur / slot)
	res := openResult{due: make([]time.Time, n), recv: make([]time.Time, n)}
	base := s.in.nextID
	perCycle := uint64(wl.perCycle)
	sentinel := s.sentinel.id

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ups := range s.mon.Updates() {
			now := time.Now()
			for _, u := range ups {
				if u.Query != sentinel {
					continue
				}
				for _, e := range u.Added {
					if i := (e.T.ID - base) / perCycle; e.T.ID >= base && i < uint64(n) {
						res.recv[i] = now
					}
				}
			}
		}
	}()

	rng := rand.New(rand.NewSource(seed + 5))
	batch, ts := s.in.batch(wl.perCycle)
	runtime.GC()
	start := time.Now().Add(slot)
	res.first = start
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * slot)
		res.due[i] = due
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		res.lagMS = append(res.lagMS, ms(sent.Sub(due)))
		sp := tr.begin("pipeline.Ingest", -1, int32(i))
		err := s.mon.Ingest(ts, batch)
		tr.end(sp)
		res.blockMS = append(res.blockMS, ms(time.Since(sent)))
		rep.op(err)
		s.win.push(batch)
		res.arrivals += len(batch)
		for r := 0; r < wl.reads; r++ {
			id := s.live[rng.Intn(len(s.live))].id
			sp := tr.begin("pipeline.Result", -1, int32(i))
			t := time.Now()
			_, err := s.mon.Result(id)
			res.readMS = append(res.readMS, ms(time.Since(t)))
			tr.end(sp)
			rep.op(err)
		}
		if heap != nil {
			heap.sample()
		}
		sp = tr.begin("loadgen.gen", -1, int32(i+1))
		g := time.Now()
		batch, ts = s.in.batch(wl.perCycle)
		res.genMS = append(res.genMS, ms(time.Since(g)))
		tr.end(sp)
	}
	rep.op(s.mon.Flush())
	res.highWater = s.mon.Stats().QueueHighWater

	// The final check reads through the pipeline before Close ends the
	// delivery stream.
	checkResults(append(s.live, s.sentinel), s.win.tuples(), wl.checkSample, seed, s.mon.Result, rep)
	rep.op(s.mon.Close())
	wg.Wait()
	for i, r := range res.recv {
		if r.IsZero() {
			res.undelivered++
			continue
		}
		res.latMS = append(res.latMS, ms(r.Sub(res.due[i])))
		// The delivery span runs from the batch's due time to the receipt
		// of its updates on the drain goroutine.
		tr.add("pipeline.delivery", res.due[i], r, -1, int32(i))
		if r.After(res.lastRecv) {
			res.lastRecv = r
		}
	}
	return res
}

// runOpen measures the durable open-loop workload end to end.
func runOpen(wl workload, seed int64, dur time.Duration, workdir string, rep *report) error {
	var setupRegMS []float64
	build := func(dir string) (asyncMonitor, error) { return topkmon.New(dims, durableOptions(wl, dir)...) }
	s, err := setupRepeated(func() (*openSetup, time.Duration, error) {
		s, d, err := setupOpen(wl, seed, workdir, build, rep)
		if err == nil {
			setupRegMS = append(setupRegMS, s.regMS...)
		}
		return s, d, err
	}, (*openSetup).close, rep)
	if err != nil {
		return err
	}
	defer os.RemoveAll(s.dir)
	heap := newHeapSampler()
	res := driveOpen(s, wl, seed, dur, heap, nil, rep)
	// A cycle whose updates never arrived is a failed operation.
	rep.attempted += len(res.recv)
	rep.failed += res.undelivered
	rep.set("tuples_per_s", float64(res.arrivals-res.undelivered*wl.perCycle)/res.lastRecv.Sub(res.first).Seconds(), "1/s")
	rep.timing("cycle", res.latMS)
	rep.timing("register", setupRegMS)
	rep.timing("read", res.readMS)
	rep.set("peak_heap_mb", heap.peakMB(), "MB")
	lag := summarize(res.lagMS)
	block := summarize(res.blockMS)
	rep.note("open loop: %d batches at %d/s, %d undelivered, queue high water %d", len(res.recv), wl.rate, res.undelivered, res.highWater)
	rep.note("sender lag p50 %.3fms p%g %.3fms; Ingest blocked p50 %.3fms p%g %.3fms",
		lag.p50, lag.tailPct, lag.tail, block.p50, block.tailPct, block.tail)
	return nil
}
