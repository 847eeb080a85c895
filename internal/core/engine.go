package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"topkmon/internal/geom"
	"topkmon/internal/grid"
	"topkmon/internal/qindex"
	"topkmon/internal/skyband"
	"topkmon/internal/stream"
	"topkmon/internal/topk"
	"topkmon/internal/window"
)

// qTile is the member-tile width of the query-index probe: one cell
// block is scored against at most qTile cluster members per multi-query
// kernel call, bounding the score scratch at qTile × block length.
const qTile = 64

type queryKind int

const (
	topkKind queryKind = iota
	thresholdKind
)

// query is one entry of the query table QT (Figure 4): the scoring
// function, k, the current result, and the per-policy maintenance state.
type query struct {
	id   QueryID
	spec QuerySpec
	kind queryKind

	// topScore is the admission filter compared against arriving tuples.
	// TMA: the current kth score (rises as better tuples arrive). SMA: the
	// kth score at the last from-scratch computation (the paper's "score
	// of the kth element after the last application of top-k computation").
	// Threshold queries: the fixed threshold. -Inf while the result is
	// underfull (the influence region is then the whole workspace).
	topScore float64
	// regScore is the admission filter value at the last from-scratch
	// computation: the query-index bound, which defines the influence
	// region. Used by the invariant checker.
	regScore float64

	// TMA state: the top list in descending total order plus an id set for
	// O(1) membership tests on expiration.
	top    []Entry
	topIDs map[uint64]struct{}
	// affected marks a TMA query whose result lost an expiring tuple; it
	// is recomputed from scratch once the whole expiration batch has been
	// applied (Figure 9 lines 12-13).
	affected bool

	// SMA state.
	sky        *skyband.Skyband
	skyChanged bool
	// pending buffers this cycle's admitted SMA arrivals during the
	// cell-batched insert phase. Cells are visited in grouping order, not
	// arrival order, but skyband insertion requires ascending sequence —
	// the buffered entries are sorted by Seq and applied at the end of the
	// phase (flushPending), restoring the exact per-arrival semantics.
	pending []Entry

	// Threshold-query state: the current result set.
	thr map[uint64]Entry

	// Reporting state: the result as last reported to the client.
	lastIDs map[uint64]Entry
	dirty   bool

	// cost accumulates the maintenance work attributed to this query:
	// influence events delivered to it, and the cells processed and heap
	// operations of its from-scratch computations.
	// It is deterministic for a given stream — the same replay attributes
	// the same cost — which is what lets the shard rebalancer make
	// reproducible decisions from it. Migration carries it along.
	cost int64
}

// Engine is the grid-based continuous monitoring engine. It is not safe
// for concurrent use: the paper's model is a single server processing one
// cycle at a time. Engines hold no process-global state, however, so any
// number of them may run concurrently with each other — the property the
// sharded monitor in internal/shard builds on (one engine per shard, one
// goroutine per engine).
type Engine struct {
	opts Options
	g    *grid.Grid
	w    *window.Window // nil in UpdateStream mode
	s    *topk.Searcher

	// qi is the shared query index: it answers which queries must see a
	// stream event in a cell. It replaces the paper's per-cell influence
	// lists (O(queries × cells) memory and a pruning walk per
	// recomputation) with O(queries + cells) memory and one bound update
	// per recomputation. Its delivery is a superset of the influence
	// region, which the admission filters and membership-test expire
	// handlers absorb.
	qi *qindex.Index

	// byID locates tuples for explicit deletions (UpdateStream mode only).
	byID map[uint64]*stream.Tuple

	queries map[QueryID]*query
	nextID  QueryID

	now     int64
	started bool
	haveSeq bool
	lastSeq uint64

	// dirtyList collects queries touched during the current cycle.
	dirtyList []*query

	// Pooled per-cycle scratch for the cell-batched insert/expire phases
	// and update emission; steady-state cycles allocate nothing from these.
	// cellMark stamps cells touched by the current phase (insert phase:
	// 1 + the cell's live length before the batch; expire phase: 1 + the
	// cell's bucket position); touched lists them in first-touch order.
	cellMark   []int32
	touched    []int
	expBuckets []expBucket
	expFilter  []*stream.Tuple
	pendingQs  []*query
	mqDst      []float64
	expCoords  []float64
	ubRow      []float64
	skyScratch []skyband.Entry
	resScratch []Entry
	curIDs     map[uint64]struct{}
	batchIDs   map[uint64]struct{}
	goneIDs    map[uint64]struct{}

	// numSMA counts registered SMA queries, so cycles without any skip
	// the per-cycle skyband sampling loop (O(queries) — the one loop
	// that would break sublinear per-cycle cost at pub/sub query
	// counts).
	numSMA int
	// memHW is the high-water of MemoryBytes results (pull-model: only
	// MemoryBytes calls move it).
	memHW int64

	stats Stats
}

// expBucket groups one cell's share of a cycle's expiration batch, in
// arrival order. The tuple slices are pooled across cycles.
type expBucket struct {
	idx    int
	tuples []*stream.Tuple
}

// NewEngine constructs an engine from the given options.
func NewEngine(opts Options) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	res := opts.GridRes
	if res == 0 {
		res = grid.ResolutionForTargetCells(opts.Dims, opts.TargetCells)
	}
	mode := grid.FIFO
	if opts.Mode == UpdateStream {
		mode = grid.Random
	}
	g := grid.New(opts.Dims, res, mode)
	e := &Engine{
		opts:     opts,
		g:        g,
		s:        topk.NewSearcher(g),
		qi:       qindex.New(opts.Dims, g),
		queries:  make(map[QueryID]*query),
		cellMark: make([]int32, g.NumCells()),
		curIDs:   make(map[uint64]struct{}),
	}
	if opts.Mode == AppendOnly {
		if !opts.ExternalExpiry {
			e.w = window.New(opts.Window)
		}
	} else {
		e.byID = make(map[uint64]*stream.Tuple)
	}
	return e, nil
}

var _ StreamMonitor = (*Engine)(nil)

// Grid exposes the underlying index (read-only use: tests, harness).
func (e *Engine) Grid() *grid.Grid { return e.g }

// Close implements StreamMonitor. The single engine owns no background
// resources, so it is a no-op.
func (e *Engine) Close() error { return nil }

// Now returns the engine clock: the timestamp of the last processed cycle.
func (e *Engine) Now() int64 { return e.now }

// NumPoints returns the number of valid tuples.
func (e *Engine) NumPoints() int { return e.g.NumPoints() }

// NumQueries returns the number of registered queries.
func (e *Engine) NumQueries() int { return len(e.queries) }

// Stats returns a snapshot of the engine counters. CellsProcessed and
// HeapOps are read from the searcher.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.CellsProcessed = e.s.CellsProcessed
	s.HeapOps = e.s.HeapOps
	s.MemoryHighWater = e.memHW
	s.MaxCellBytesHighWater = e.g.MaxCellBytesHighWater()
	return s
}

// MemoryHighWater returns the largest MemoryBytes figure observed so
// far. Pull-model: it only moves when MemoryBytes is called (the shard
// load gatherer does every pass), keeping the per-cycle path free of
// O(cells) scans.
func (e *Engine) MemoryHighWater() int64 { return e.memHW }

// Register implements Monitor.
func (e *Engine) Register(spec QuerySpec) (QueryID, error) {
	if spec.F == nil {
		return 0, fmt.Errorf("core: query needs a scoring function")
	}
	if spec.F.Dims() != e.opts.Dims {
		return 0, fmt.Errorf("core: function dimensionality %d != workspace %d", spec.F.Dims(), e.opts.Dims)
	}
	if spec.Constraint != nil && spec.Constraint.Dims() != e.opts.Dims {
		return 0, fmt.Errorf("core: constraint dimensionality %d != workspace %d", spec.Constraint.Dims(), e.opts.Dims)
	}
	q := &query{
		id:      e.nextID,
		spec:    spec,
		lastIDs: make(map[uint64]Entry),
	}
	if spec.Threshold != nil {
		q.kind = thresholdKind
		q.topScore = *spec.Threshold
		q.regScore = *spec.Threshold
		q.thr = make(map[uint64]Entry)
	} else {
		if spec.K <= 0 {
			return 0, fmt.Errorf("core: K must be positive, got %d", spec.K)
		}
		if spec.Policy == SMA && e.opts.Mode == UpdateStream {
			return 0, fmt.Errorf("core: SMA is unavailable under update streams (expiry order unknown, Section 7)")
		}
		if spec.Policy != TMA && spec.Policy != SMA {
			return 0, fmt.Errorf("core: unknown policy %v", spec.Policy)
		}
		q.kind = topkKind
		if spec.Policy == SMA {
			q.sky = skyband.New(spec.K)
			e.numSMA++
		}
	}
	e.nextID++
	e.queries[q.id] = q
	// Parked at +Inf: invisible to probes until the initial computation
	// below installs the real bound (no cycle can run in between).
	if err := e.qi.Add(q.id, spec.F, math.Inf(1)); err != nil {
		panic(err)
	}

	// Initial result computation (Figure 6), installing the query-index
	// bound.
	if q.kind == thresholdKind {
		work := e.s.CellsProcessed
		entries, _ := e.s.Threshold(spec.F, *spec.Threshold, spec.Constraint)
		q.cost += e.s.CellsProcessed - work
		if err := e.qi.SetBound(q.id, *spec.Threshold); err != nil {
			panic(err)
		}
		for _, en := range entries {
			q.thr[en.T.ID] = Entry{T: en.T, Score: en.Score}
		}
	} else {
		e.computeFromScratch(q)
		e.stats.InitialComputations++
		e.stats.Recomputes-- // computeFromScratch counted it as a recompute
	}
	for _, en := range q.currentResult(nil) {
		q.lastIDs[en.T.ID] = en
	}
	return q.id, nil
}

// Unregister implements Monitor: it deletes the query from the query table
// and the query index.
func (e *Engine) Unregister(id QueryID) error {
	q, ok := e.queries[id]
	if !ok {
		return unknownQuery(id)
	}
	delete(e.queries, id)
	if q.sky != nil {
		e.numSMA--
	}
	if err := e.qi.Remove(id); err != nil {
		panic(err)
	}
	// Drop the query from the dirty list if the current cycle touched it.
	for i, dq := range e.dirtyList {
		if dq == q {
			e.dirtyList = append(e.dirtyList[:i], e.dirtyList[i+1:]...)
			break
		}
	}
	return nil
}

// Step implements Monitor for the append-only (sliding-window) model. The
// arrival batch must carry the cycle's timestamp and strictly increasing
// sequence numbers.
func (e *Engine) Step(now int64, arrivals []*stream.Tuple) ([]Update, error) {
	if e.opts.Mode != AppendOnly {
		return nil, fmt.Errorf("core: Step requires AppendOnly mode; use StepUpdate")
	}
	if e.opts.ExternalExpiry {
		return nil, fmt.Errorf("core: engine uses external expiry; use StepExternal")
	}
	if err := e.admitCycle(now, arrivals); err != nil {
		return nil, err
	}

	if e.opts.DeletionsFirst {
		// Ablation: apply the cycle's expirations before its arrivals.
		// The window must still account for the arrivals when deciding
		// what expires, so they are pushed first and only the event
		// handlers run in inverted order. A tuple that arrives and expires
		// within the same cycle (r > N) must not be indexed at all: it was
		// never inserted, so its expiration is a no-op too.
		for _, t := range arrivals {
			e.w.Push(t)
		}
		e.expFilter = e.w.ExpireAppend(now, e.expFilter[:0])
		gone := e.splitSameBatch(arrivals)
		e.expireBatch(e.expFilter)
		e.releaseExpFilter()
		e.insertBatch(arrivals, gone)
		return e.finishCycle(), nil
	}

	// Phase 1 — Pins. Handled before expirations so that an arrival
	// replacing an expiring result tuple avoids a from-scratch
	// recomputation (Figure 8a discussion).
	for _, t := range arrivals {
		e.w.Push(t)
	}
	e.insertBatch(arrivals, nil)

	// Phase 2 — Pdel.
	e.expFilter = e.w.ExpireAppend(now, e.expFilter[:0])
	e.expireBatch(e.expFilter)
	e.releaseExpFilter()

	return e.finishCycle(), nil
}

// splitSameBatch partitions the pending expiration run (e.expFilter) under
// DeletionsFirst semantics: expirations that are also in this cycle's
// arrival batch are removed from the run and returned as the skip set for
// the insert phase (pooled; valid until the next call).
func (e *Engine) splitSameBatch(arrivals []*stream.Tuple) map[uint64]struct{} {
	if e.batchIDs == nil {
		e.batchIDs = make(map[uint64]struct{}, len(arrivals))
		e.goneIDs = make(map[uint64]struct{})
	}
	clear(e.batchIDs)
	clear(e.goneIDs)
	for _, t := range arrivals {
		e.batchIDs[t.ID] = struct{}{}
	}
	keep := e.expFilter[:0]
	for _, t := range e.expFilter {
		if _, sameBatch := e.batchIDs[t.ID]; sameBatch {
			e.goneIDs[t.ID] = struct{}{}
			continue
		}
		keep = append(keep, t)
	}
	for i := len(keep); i < len(e.expFilter); i++ {
		e.expFilter[i] = nil
	}
	e.expFilter = keep
	return e.goneIDs
}

// admitCycle validates one append-only cycle's inputs and advances the
// engine clock and sequence watermark. Shared by Step and StepExternal.
func (e *Engine) admitCycle(now int64, arrivals []*stream.Tuple) error {
	if e.started && now < e.now {
		return fmt.Errorf("core: time went backwards: %d after %d", now, e.now)
	}
	for _, t := range arrivals {
		if t.TS != now {
			return fmt.Errorf("core: arrival %v not stamped with cycle timestamp %d", t, now)
		}
		if e.haveSeq && t.Seq <= e.lastSeq {
			return fmt.Errorf("core: arrival sequence %d not increasing (last %d)", t.Seq, e.lastSeq)
		}
		e.haveSeq = true
		e.lastSeq = t.Seq
	}
	e.started = true
	e.now = now
	return nil
}

// StepExternal runs one append-only processing cycle whose expirations are
// supplied by the caller instead of an engine-owned window (ExternalExpiry
// mode). The expirations must be tuples previously passed as arrivals, in
// FIFO (arrival) order — the caller owns a sliding window over a superset
// of this engine's tuples and forwards the engine its slice of each
// cycle's expiration run. Arrivals and expirations follow the same
// Pins-before-Pdel cycle order as Step (inverted under DeletionsFirst),
// so a data-partitioned fleet of engines reproduces the single engine's
// results exactly.
func (e *Engine) StepExternal(now int64, arrivals, expirations []*stream.Tuple) ([]Update, error) {
	if e.opts.Mode != AppendOnly || !e.opts.ExternalExpiry {
		return nil, fmt.Errorf("core: StepExternal requires AppendOnly mode with ExternalExpiry")
	}
	if err := e.admitCycle(now, arrivals); err != nil {
		return nil, err
	}
	for i := 1; i < len(expirations); i++ {
		if expirations[i].Seq <= expirations[i-1].Seq {
			return nil, fmt.Errorf("core: expirations out of FIFO order: seq %d after %d",
				expirations[i].Seq, expirations[i-1].Seq)
		}
	}

	if e.opts.DeletionsFirst {
		// Ablation parity with Step: expirations before arrivals, with a
		// tuple that arrives and expires within the same cycle never
		// touching the index at all.
		e.expFilter = append(e.expFilter[:0], expirations...)
		gone := e.splitSameBatch(arrivals)
		e.expireBatch(e.expFilter)
		e.releaseExpFilter()
		e.insertBatch(arrivals, gone)
		return e.finishCycle(), nil
	}

	// Phase 1 — Pins.
	e.insertBatch(arrivals, nil)
	// Phase 2 — Pdel.
	e.expireBatch(expirations)
	return e.finishCycle(), nil
}

// AppendResult appends the current result of query id to out and returns
// the extended slice, avoiding per-call allocation. It is the snapshot
// primitive the data-partitioned sharded monitor merges across engines
// after every cycle: each engine's result is the exact (local) top-k /
// threshold set over the tuples it indexes.
func (e *Engine) AppendResult(id QueryID, out []Entry) ([]Entry, error) {
	q, ok := e.queries[id]
	if !ok {
		return out, unknownQuery(id)
	}
	return q.currentResult(out), nil
}

// StepUpdate runs one processing cycle under the explicit-deletion stream
// model of Section 7: arrivals are inserted and the tuples named by
// deletions are removed, in arbitrary order.
func (e *Engine) StepUpdate(now int64, arrivals []*stream.Tuple, deletions []uint64) ([]Update, error) {
	if e.opts.Mode != UpdateStream {
		return nil, fmt.Errorf("core: StepUpdate requires UpdateStream mode")
	}
	if e.started && now < e.now {
		return nil, fmt.Errorf("core: time went backwards: %d after %d", now, e.now)
	}
	e.started = true
	e.now = now
	// Validate the whole cycle before mutating anything, so a rejected
	// batch leaves byID, the grid and the query state exactly as they
	// were (the per-tuple path used to apply a prefix before erroring;
	// all-or-nothing is the stronger contract).
	if e.batchIDs == nil {
		e.batchIDs = make(map[uint64]struct{}, len(arrivals))
		e.goneIDs = make(map[uint64]struct{})
	}
	clear(e.batchIDs)
	for _, t := range arrivals {
		if _, dup := e.byID[t.ID]; dup {
			return nil, fmt.Errorf("core: duplicate tuple id %d", t.ID)
		}
		if _, dup := e.batchIDs[t.ID]; dup {
			return nil, fmt.Errorf("core: duplicate tuple id %d", t.ID)
		}
		e.batchIDs[t.ID] = struct{}{}
	}
	clear(e.goneIDs)
	for _, id := range deletions {
		if _, dup := e.goneIDs[id]; dup {
			return nil, fmt.Errorf("core: deletion of unknown tuple %d", id)
		}
		e.goneIDs[id] = struct{}{}
		_, indexed := e.byID[id]
		_, arriving := e.batchIDs[id]
		if !indexed && !arriving {
			return nil, fmt.Errorf("core: deletion of unknown tuple %d", id)
		}
	}
	for _, t := range arrivals {
		e.byID[t.ID] = t
	}
	e.insertBatch(arrivals, nil)
	// Deletions naming same-cycle arrivals resolve against the freshly
	// inserted tuples, preserving the old insert-then-delete semantics.
	e.expFilter = e.expFilter[:0]
	for _, id := range deletions {
		t := e.byID[id]
		delete(e.byID, id)
		e.expFilter = append(e.expFilter, t)
	}
	e.expireBatch(e.expFilter)
	e.releaseExpFilter()
	return e.finishCycle(), nil
}

// releaseExpFilter drops the tuple references held by the pooled
// expiration buffer (keeping its capacity), so a large expiration burst
// does not pin long-expired tuples for the engine's lifetime.
func (e *Engine) releaseExpFilter() {
	for i := range e.expFilter {
		e.expFilter[i] = nil
	}
	e.expFilter = e.expFilter[:0]
}

// Result implements Monitor.
func (e *Engine) Result(id QueryID) ([]Entry, error) {
	q, ok := e.queries[id]
	if !ok {
		return nil, unknownQuery(id)
	}
	return q.currentResult(nil), nil
}

// insertBatch indexes one cycle's arrival batch and updates every query
// whose influence region covers a touched cell (Figure 9 lines 3-7 /
// Figure 11 lines 4-11). Arrivals are grouped by destination cell: the
// grid appends each cell's share to its columnar block, and probeInsert
// scores the whole new sub-block against the influenced queries with
// multi-query kernel calls instead of one interface call per tuple.
// Per-query outcomes are order-independent within a cycle (TMA's bounded
// top list and the threshold result set are set-semantics; SMA admissions
// are buffered and replayed in sequence order by flushPending), so the
// cell-grouped order produces exactly the per-arrival transcript. skip
// lists same-batch tuple ids that must not be indexed (DeletionsFirst).
//
//topk:hot
func (e *Engine) insertBatch(arrivals []*stream.Tuple, skip map[uint64]struct{}) {
	for _, t := range arrivals {
		if skip != nil {
			if _, gone := skip[t.ID]; gone {
				continue
			}
		}
		e.stats.Arrivals++
		idx := e.g.IndexOf(t.Vec)
		if e.cellMark[idx] == 0 {
			e.cellMark[idx] = int32(e.g.CellLen(idx)) + 1
			e.touched = append(e.touched, idx)
		}
		e.g.InsertAt(idx, t)
	}
	dims := e.g.Dims()
	for _, idx := range e.touched {
		from := int(e.cellMark[idx]) - 1
		e.cellMark[idx] = 0
		blk := e.g.CellBlockFrom(idx, from)
		if blk.Len() > 0 {
			e.probeInsert(idx, blk, dims)
		}
	}
	e.touched = e.touched[:0]
	e.flushPending()
}

// probeInsert delivers one cell's new sub-block through the query index:
// for each cluster cached on the cell whose score upper bound reaches
// the cluster's lowest member bound, the block is scored against up to
// qTile members per multi-query kernel call, and each member at least
// one of whose block scores reaches its own bound receives the scored
// block through applyInsertBlock.
// Skipped members could not admit anything — every insert handler
// filters on score ≥ the member's current bound (threshold, TMA kth,
// SMA topScore), so a member none of whose scores reach it sees only
// no-ops — and skipping them (without charging their counters) leaves
// the transcript exactly what per-query delivery would produce. The one
// place a handler admits below the bound — a TMA top list underfull
// mid-cycle after losing a result tuple — is already marked affected and
// recomputed from scratch at finishCycle, erasing any difference before
// updates are emitted.
//
//topk:hot
func (e *Engine) probeInsert(idx int, blk grid.Block, dims int) {
	n := blk.Len()
	for _, ce := range e.qi.CellEntries(idx) {
		cl := ce.C
		m := cl.Len()
		if m == 0 || ce.UB < cl.MinBound() {
			continue
		}
		if e.skipByEnvelope(cl, blk.Coords, n) {
			continue
		}
		for base := 0; base < m; base += qTile {
			end := base + qTile
			if end > m {
				end = m
			}
			need := (end - base) * n
			if cap(e.mqDst) < need {
				e.mqDst = make([]float64, 0, need+need/2+8)
			}
			dst := e.mqDst[:need]
			cl.ScoreMembers(dst, blk.Coords, base, end, dims)
			for j := base; j < end; j++ {
				bnd := cl.BoundAt(j)
				if ce.UB < bnd {
					continue
				}
				row := dst[(j-base)*n : (j-base+1)*n]
				if !rowReaches(row, bnd) {
					continue
				}
				q := e.queries[cl.IDAt(j)]
				e.stats.InfluenceEvents += int64(n)
				q.cost += int64(n)
				e.applyInsertBlock(q, blk, row, dims)
			}
		}
	}
}

// envMinMembers is the cluster size from which the envelope prefilter
// pays: scoring the envelope costs one extra member's worth of kernel
// work, so tiny clusters go straight to member scoring.
const envMinMembers = 8

// skipByEnvelope reports whether a whole cluster can be skipped for the
// given block: the block's n points are scored once against the
// cluster's weight envelope (a bitwise upper bound on every member's
// score of the same point), and if not even that bound reaches the
// cluster's minimum member bound, no member's own score can reach its
// own (>= minimum) bound and the member loop would deliver nothing.
// This is what keeps a hot cell's probe sublinear in cluster size: a
// near-duplicate cluster is pruned for the common blocks that score
// below its threshold band at the cost of one single-query kernel call,
// instead of scoring every member.
//
//topk:hot
func (e *Engine) skipByEnvelope(cl *qindex.Cluster, coords []float64, n int) bool {
	if cl.Len() < envMinMembers {
		return false
	}
	if cap(e.ubRow) < n {
		e.ubRow = make([]float64, 0, n+8)
	}
	ub := e.ubRow[:n]
	return cl.ScoreEnvelope(ub, coords) && !rowReaches(ub, cl.MinBound())
}

// rowReaches reports whether any score in row reaches bound. Equality
// counts as reaching: tie-break admissions (stream.Better on equal
// scores) and entries sitting exactly on a member's bound must keep
// flowing; only members strictly out of reach are skipped.
//
//topk:hot
func rowReaches(row []float64, bound float64) bool {
	for _, s := range row {
		if s >= bound {
			return true
		}
	}
	return false
}

// applyInsertBlock feeds one scored cell block to one query's maintenance
// state — the per-event logic of the old per-tuple path, with the score
// already computed.
//
//topk:hot
func (e *Engine) applyInsertBlock(q *query, blk grid.Block, scores []float64, dims int) {
	cons := q.spec.Constraint
	switch q.kind {
	case thresholdKind:
		thr := *q.spec.Threshold
		for j, score := range scores {
			if score <= thr {
				continue
			}
			if cons != nil && !cons.Contains(geom.Vector(blk.Coords[j*dims:(j+1)*dims])) {
				continue
			}
			t := blk.Ptrs[j]
			q.thr[t.ID] = Entry{T: t, Score: score}
			e.markDirty(q)
		}
	case topkKind:
		if q.spec.Policy == SMA {
			// Stale filter: kth score at the last from-scratch computation
			// (-Inf while underfull, admitting everything). topScore only
			// changes at recomputation — never inside a cycle's insert
			// phase — so filtering the whole block against it is exact.
			for j, score := range scores {
				if score < q.topScore {
					continue
				}
				if cons != nil && !cons.Contains(geom.Vector(blk.Coords[j*dims:(j+1)*dims])) {
					continue
				}
				if len(q.pending) == 0 {
					e.pendingQs = append(e.pendingQs, q)
				}
				q.pending = append(q.pending, Entry{T: blk.Ptrs[j], Score: score})
				e.markDirty(q)
			}
			return
		}
		// TMA: maintain exactly the top-k list.
		for j, score := range scores {
			if len(q.top) == q.spec.K {
				kth := q.top[q.spec.K-1]
				if !stream.Better(score, blk.Seqs[j], kth.Score, kth.T.Seq) {
					continue
				}
			}
			if cons != nil && !cons.Contains(geom.Vector(blk.Coords[j*dims:(j+1)*dims])) {
				continue
			}
			q.insertTop(Entry{T: blk.Ptrs[j], Score: score})
			e.markDirty(q)
		}
	}
}

// flushPending applies the buffered SMA admissions in ascending sequence
// order — the order skyband insertion requires (each insert must be the
// latest arrival among the entries). It runs at the end of every insert
// phase, before any expiration of the same cycle is processed.
//
//topk:hot
func (e *Engine) flushPending() {
	for _, q := range e.pendingQs {
		slices.SortFunc(q.pending, func(a, b Entry) int {
			if a.T.Seq < b.T.Seq {
				return -1
			}
			return 1
		})
		e.skyScratch = e.skyScratch[:0]
		for _, en := range q.pending {
			e.skyScratch = append(e.skyScratch, skyband.Entry{T: en.T, Score: en.Score})
		}
		q.sky.InsertBatch(e.skyScratch)
		q.skyChanged = true
		q.pending = q.pending[:0]
	}
	e.pendingQs = e.pendingQs[:0]
}

// expireBatch removes one cycle's expiration run from the index and
// updates the queries whose influence regions cover the touched cells
// (Figure 9 lines 8-11 / Figure 11 lines 12-16). Expirations are grouped
// by cell so each influenced query handles a whole block per lookup;
// per-event outcomes are order-independent (TMA's affected flag and the
// threshold set are set-semantics, and an expiring skyband entry dominates
// nothing, so its removal never touches other entries' counters).
//
//topk:hot
func (e *Engine) expireBatch(expirations []*stream.Tuple) {
	buckets := 0
	for _, t := range expirations {
		e.stats.Expirations++
		idx := e.g.IndexOf(t.Vec)
		e.g.Remove(t)
		m := e.cellMark[idx]
		if m == 0 {
			if buckets == len(e.expBuckets) {
				e.expBuckets = append(e.expBuckets, expBucket{})
			}
			e.expBuckets[buckets].idx = idx
			e.expBuckets[buckets].tuples = e.expBuckets[buckets].tuples[:0]
			buckets++
			m = int32(buckets)
			e.cellMark[idx] = m
		}
		b := &e.expBuckets[m-1]
		b.tuples = append(b.tuples, t)
	}
	for i := 0; i < buckets; i++ {
		b := &e.expBuckets[i]
		e.cellMark[b.idx] = 0
		e.probeExpire(b.idx, b.tuples)
		// Release the tuple references so expired tuples are not pinned
		// until the bucket's next reuse.
		for j := range b.tuples {
			b.tuples[j] = nil
		}
		b.tuples = b.tuples[:0]
	}
}

// probeExpire delivers one cell's expired tuples through the query index,
// mirroring probeInsert's two-level skip: clusters whose cell upper bound
// misses their lowest member bound are dropped wholesale, the rest have
// the expired coordinates scored per member with the multi-query kernels,
// and only members with at least one score reaching their own bound run
// the membership-test handler. The skip is exact for expirations too:
// every entry a query holds scores at or above the query's current bound
// (threshold results are strictly above the threshold; top lists and
// skybands are rebuilt against the bound at every from-scratch
// recomputation and admit only at-or-above it in between), so an expired
// tuple scoring below the bound cannot be held and its removal is a
// no-op.
//
//topk:hot
func (e *Engine) probeExpire(idx int, tuples []*stream.Tuple) {
	n := len(tuples)
	dims := e.g.Dims()
	if cap(e.expCoords) < n*dims {
		e.expCoords = make([]float64, 0, n*dims+n*dims/2+8)
	}
	coords := e.expCoords[:0]
	for _, t := range tuples {
		coords = append(coords, t.Vec...)
	}
	for _, ce := range e.qi.CellEntries(idx) {
		cl := ce.C
		m := cl.Len()
		if m == 0 || ce.UB < cl.MinBound() {
			continue
		}
		if e.skipByEnvelope(cl, coords, n) {
			continue
		}
		for base := 0; base < m; base += qTile {
			end := base + qTile
			if end > m {
				end = m
			}
			need := (end - base) * n
			if cap(e.mqDst) < need {
				e.mqDst = make([]float64, 0, need+need/2+8)
			}
			dst := e.mqDst[:need]
			cl.ScoreMembers(dst, coords, base, end, dims)
			for j := base; j < end; j++ {
				bnd := cl.BoundAt(j)
				if ce.UB < bnd {
					continue
				}
				if !rowReaches(dst[(j-base)*n:(j-base+1)*n], bnd) {
					continue
				}
				q := e.queries[cl.IDAt(j)]
				e.stats.InfluenceEvents += int64(n)
				q.cost += int64(n)
				e.applyExpireBlock(q, tuples)
			}
		}
	}
}

// applyExpireBlock feeds one cell's expired tuples to one query's
// maintenance state.
//
//topk:hot
func (e *Engine) applyExpireBlock(q *query, tuples []*stream.Tuple) {
	switch q.kind {
	case thresholdKind:
		for _, t := range tuples {
			if _, ok := q.thr[t.ID]; ok {
				delete(q.thr, t.ID)
				e.markDirty(q)
			}
		}
	case topkKind:
		if q.spec.Policy == SMA {
			for _, t := range tuples {
				if q.sky.Remove(t.ID) {
					q.skyChanged = true
					e.markDirty(q)
				}
			}
			return
		}
		for _, t := range tuples {
			if _, ok := q.topIDs[t.ID]; ok {
				// Result tuple expired: mark affected; recomputation happens
				// after the whole deletion batch (Figure 9 line 11-13).
				q.affected = true
				e.markDirty(q)
			}
		}
	}
}

// finishCycle recomputes affected queries, samples statistics, and emits
// result deltas ordered by query id.
//
//topk:hot
func (e *Engine) finishCycle() []Update {
	// Recompute affected TMA queries and underflowing SMA skybands.
	for _, q := range e.dirtyList {
		switch {
		case q.kind != topkKind:
		case q.spec.Policy == TMA && q.affected:
			e.computeFromScratch(q)
			q.affected = false
		case q.spec.Policy == SMA && q.skyChanged:
			if q.sky.Len() < q.spec.K && e.g.NumPoints() > q.sky.Len() {
				e.computeFromScratch(q)
			}
			q.skyChanged = false
		}
	}

	// Sample skyband sizes for Table 2. Guarded so query sets without
	// any SMA member (the pub/sub-scale workloads) keep per-cycle cost
	// independent of the query count.
	if e.numSMA > 0 {
		for _, q := range e.queries {
			if q.kind == topkKind && q.spec.Policy == SMA {
				e.stats.SkybandSizeSum += int64(q.sky.Len())
				e.stats.SkybandSamples++
			}
		}
	}

	// Report changes to the client (Figure 9 line 22 / Figure 11 line 23).
	// The Update payloads are freshly allocated — they are handed to the
	// caller — but the diffing itself runs on pooled scratch, so a cycle
	// that changes no result allocates nothing here.
	var updates []Update
	for _, q := range e.dirtyList {
		q.dirty = false
		e.resScratch = q.currentResult(e.resScratch[:0])
		scratch := e.resScratch
		var upd Update
		for _, en := range scratch {
			if _, ok := q.lastIDs[en.T.ID]; !ok {
				upd.Added = append(upd.Added, en)
			}
		}
		if len(scratch) != len(q.lastIDs) || len(upd.Added) > 0 {
			clear(e.curIDs)
			for _, en := range scratch {
				e.curIDs[en.T.ID] = struct{}{}
			}
			for id, en := range q.lastIDs {
				if _, ok := e.curIDs[id]; !ok {
					upd.Removed = append(upd.Removed, en)
				}
			}
		}
		if len(upd.Added) == 0 && len(upd.Removed) == 0 {
			continue
		}
		upd.Query = q.id
		clear(q.lastIDs)
		for _, en := range scratch {
			q.lastIDs[en.T.ID] = en
		}
		slices.SortFunc(upd.Added, entryBetter)
		slices.SortFunc(upd.Removed, entryBetter)
		updates = append(updates, upd)
		e.stats.ResultUpdates++
	}
	e.dirtyList = e.dirtyList[:0]
	slices.SortFunc(updates, func(a, b Update) int {
		if a.Query < b.Query {
			return -1
		}
		return 1
	})
	return updates
}

// entryBetter orders entries by the stream.Better total preference order
// (descending), as a slices.SortFunc comparator.
func entryBetter(a, b Entry) int {
	if stream.Better(a.Score, a.T.Seq, b.Score, b.T.Seq) {
		return -1
	}
	return 1
}

// computeFromScratch runs the top-k computation module for q, refreshes the
// policy state and moves the query-index bound to the new kth score, which
// replaces both the influence-list registration and the pruning walk of
// Figure 9 lines 13-21.
func (e *Engine) computeFromScratch(q *query) {
	e.stats.Recomputes++
	work := e.s.CellsProcessed + e.s.HeapOps
	res := e.s.TopK(topk.Request{F: q.spec.F, K: q.spec.K, Constraint: q.spec.Constraint})
	q.cost += e.s.CellsProcessed + e.s.HeapOps - work

	if q.spec.Policy == SMA {
		e.skyScratch = e.skyScratch[:0]
		for _, en := range res.Top {
			e.skyScratch = append(e.skyScratch, skyband.Entry{T: en.T, Score: en.Score})
		}
		q.sky.Rebuild(e.skyScratch)
	} else {
		q.top = q.top[:0]
		if q.topIDs == nil {
			q.topIDs = make(map[uint64]struct{}, q.spec.K)
		} else {
			clear(q.topIDs)
		}
		for _, en := range res.Top {
			q.top = append(q.top, Entry{T: en.T, Score: en.Score})
			q.topIDs[en.T.ID] = struct{}{}
		}
	}
	if len(res.Top) == q.spec.K {
		q.topScore = res.Top[q.spec.K-1].Score
	} else {
		q.topScore = math.Inf(-1)
	}
	q.regScore = q.topScore
	if err := e.qi.SetBound(q.id, q.regScore); err != nil {
		panic(err)
	}
}

func (e *Engine) markDirty(q *query) {
	if !q.dirty {
		q.dirty = true
		e.dirtyList = append(e.dirtyList, q)
	}
}

// insertTop inserts an entry into a TMA top list, keeping descending total
// order and at most K entries (the previous kth is dropped, as in the
// paper: TMA maintains exactly k results).
//
//topk:hot
func (q *query) insertTop(en Entry) {
	lo, hi := 0, len(q.top)
	for lo < hi {
		mid := (lo + hi) / 2
		if stream.Better(q.top[mid].Score, q.top[mid].T.Seq, en.Score, en.T.Seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if len(q.top) < q.spec.K {
		q.top = append(q.top, Entry{})
	} else {
		evicted := q.top[len(q.top)-1]
		delete(q.topIDs, evicted.T.ID)
	}
	copy(q.top[lo+1:], q.top[lo:])
	q.top[lo] = en
	if q.topIDs == nil {
		//topk:allow hotalloc lazy once-per-query init of a long-lived map, amortized over the query lifetime
		q.topIDs = make(map[uint64]struct{}, q.spec.K)
	}
	q.topIDs[en.T.ID] = struct{}{}
	if len(q.top) == q.spec.K {
		q.topScore = q.top[q.spec.K-1].Score
	}
}

// currentResult appends the query's current result to out: the TMA top
// list, the first k skyband entries, or the threshold set in descending
// total order.
func (q *query) currentResult(out []Entry) []Entry {
	switch q.kind {
	case thresholdKind:
		for _, en := range q.thr {
			out = append(out, en)
		}
		sort.Slice(out, func(i, j int) bool {
			return stream.Better(out[i].Score, out[i].T.Seq, out[j].Score, out[j].T.Seq)
		})
		return out
	default:
		if q.spec.Policy == SMA {
			n := q.spec.K
			if n > q.sky.Len() {
				n = q.sky.Len()
			}
			for _, en := range q.sky.Entries()[:n] {
				out = append(out, Entry{T: en.T, Score: en.Score})
			}
			return out
		}
		return append(out, q.top...)
	}
}

// MemoryBytes implements Monitor, mirroring the space analysis of
// Section 6: the index (grid + valid list) plus the query-table entries
// (O(d + 2k) for TMA, O(d + 3k) for SMA).
func (e *Engine) MemoryBytes() int64 {
	const (
		entrySize    = 24 // tuple pointer + score
		skyEntrySize = 32 // tuple pointer + score + dominance counter
		mapEntrySize = 16
		queryBase    = 96
	)
	total := e.g.MemoryBytes()
	if e.w != nil {
		total += e.w.MemoryBytes()
	}
	if e.byID != nil {
		total += int64(len(e.byID)) * mapEntrySize
	}
	for _, q := range e.queries {
		total += queryBase + int64(q.spec.F.Dims())*8
		total += int64(len(q.top))*entrySize + int64(len(q.topIDs))*mapEntrySize
		if q.sky != nil {
			total += int64(q.sky.Len()) * (skyEntrySize + mapEntrySize)
		}
		total += int64(len(q.thr)) * (entrySize + mapEntrySize)
		total += int64(len(q.lastIDs)) * (entrySize + mapEntrySize)
	}
	total += e.qi.MemoryBytes()
	if total > e.memHW {
		e.memHW = total
	}
	return total
}
