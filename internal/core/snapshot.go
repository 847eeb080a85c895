package core

import (
	"fmt"
	"sort"

	"topkmon/internal/skyband"
	"topkmon/internal/stream"
)

// QuerySnapshot is the complete portable state of one registered query:
// everything ImportQuery needs so that the query's subsequent behavior on
// the importing engine is byte-identical to what it would have been on the
// exporting one. It is the migration unit behind cost-aware shard
// rebalancing (internal/shard).
//
// What moves: the spec, the admission filters (TopScore/RegScore), the
// policy state (TMA top list, SMA skyband with dominance counters, or the
// threshold result set), the reporting baseline (LastReported — the result
// as last handed to the client, which anchors future Update deltas) and
// the attributed maintenance cost.
//
// What is re-derived: the query-index entry, from the spec and RegScore
// (the influence region is implied by the bound). The importing engine
// must already index the same tuple stream under identical Options (same
// dimensionality, grid resolution and stream mode — validated on import);
// tuples are carried by pointer, so snapshots are only meaningful between
// engines fed the same *stream.Tuple instances, which is exactly the
// query-partitioned sharded monitor's broadcast invariant.
type QuerySnapshot struct {
	Spec QuerySpec
	// Dims, GridRes and Mode pin the geometry and stream model the policy
	// state refers to; ImportQuery rejects a snapshot taken under
	// different options.
	Dims    int
	GridRes int
	Mode    StreamMode

	// TopScore and RegScore are the admission filters (see query).
	TopScore float64
	RegScore float64

	// Top is the TMA top list in descending total order (nil for SMA and
	// threshold queries).
	Top []Entry
	// Skyband is the full SMA skyband — entries with their dominance
	// counters, descending total order (nil for TMA and threshold queries).
	Skyband []skyband.Entry
	// Threshold is the current result set of a threshold query, descending
	// total order (nil otherwise).
	Threshold []Entry
	// LastReported is the result as last reported to the client, descending
	// total order: the baseline future Update deltas diff against.
	LastReported []Entry
	// Cost is the accumulated attributed maintenance cost (see Stats), so
	// cost-aware placement keeps seeing the query's history after a move.
	Cost int64
}

// sortEntriesBetter orders entries by the stream.Better total order, making
// exported map contents deterministic.
func sortEntriesBetter(entries []Entry) {
	sort.Slice(entries, func(i, j int) bool {
		return stream.Better(entries[i].Score, entries[i].T.Seq, entries[j].Score, entries[j].T.Seq)
	})
}

// ExportQuery snapshots the full state of query id. It must be called
// between processing cycles — the engine refuses to export a query with
// unfinished cycle work (dirty/affected flags set), because that state is
// only meaningful to the cycle that raised it. The snapshot deep-copies all
// engine-owned containers; only the tuples themselves are shared by
// pointer.
func (e *Engine) ExportQuery(id QueryID) (QuerySnapshot, error) {
	q, ok := e.queries[id]
	if !ok {
		return QuerySnapshot{}, unknownQuery(id)
	}
	if q.dirty || q.affected || q.skyChanged {
		return QuerySnapshot{}, fmt.Errorf("core: query %d has unfinished cycle state; export only between cycles", id)
	}
	snap := QuerySnapshot{
		Spec:     q.spec,
		Dims:     e.opts.Dims,
		GridRes:  e.g.Res(),
		Mode:     e.opts.Mode,
		TopScore: q.topScore,
		RegScore: q.regScore,
		Cost:     q.cost,
	}
	switch {
	case q.kind == thresholdKind:
		snap.Threshold = make([]Entry, 0, len(q.thr))
		for _, en := range q.thr {
			snap.Threshold = append(snap.Threshold, en)
		}
		sortEntriesBetter(snap.Threshold)
	case q.spec.Policy == SMA:
		snap.Skyband = append([]skyband.Entry(nil), q.sky.Entries()...)
	default:
		snap.Top = append([]Entry(nil), q.top...)
	}
	snap.LastReported = make([]Entry, 0, len(q.lastIDs))
	for _, en := range q.lastIDs {
		snap.LastReported = append(snap.LastReported, en)
	}
	sortEntriesBetter(snap.LastReported)
	return snap, nil
}

// ImportQuery installs a query from a snapshot, assigning it a fresh local
// id and indexing it at its bound, without running any computation:
// the imported query resumes exactly where the exported one stopped. The
// engine must have been constructed with the same workspace dimensionality,
// grid resolution and stream mode, and must index the same tuple stream as
// the exporter (the query-partitioned broadcast invariant); violations of
// the former are rejected here, the latter is the caller's contract.
func (e *Engine) ImportQuery(snap QuerySnapshot) (QueryID, error) {
	id := e.nextID
	if err := e.importAt(snap, id); err != nil {
		return 0, err
	}
	e.nextID = id + 1
	return id, nil
}

// importAt validates a snapshot and installs it as query id, leaving the
// id watermark to the caller (ImportQuery allocates the next fresh id,
// ImportQueryAt reinstates an original one on the restore path).
func (e *Engine) importAt(snap QuerySnapshot, id QueryID) error {
	if snap.Spec.F == nil {
		return fmt.Errorf("core: snapshot has no scoring function")
	}
	if snap.Dims != e.opts.Dims {
		return fmt.Errorf("core: snapshot dimensionality %d != workspace %d", snap.Dims, e.opts.Dims)
	}
	if snap.GridRes != e.g.Res() {
		return fmt.Errorf("core: snapshot grid resolution %d != engine %d", snap.GridRes, e.g.Res())
	}
	if snap.Mode != e.opts.Mode {
		return fmt.Errorf("core: snapshot stream mode %v != engine %v", snap.Mode, e.opts.Mode)
	}

	q := &query{
		id:       id,
		spec:     snap.Spec,
		topScore: snap.TopScore,
		regScore: snap.RegScore,
		cost:     snap.Cost,
		lastIDs:  make(map[uint64]Entry, len(snap.LastReported)),
	}
	switch {
	case snap.Spec.Threshold != nil:
		q.kind = thresholdKind
		q.thr = make(map[uint64]Entry, len(snap.Threshold))
		for _, en := range snap.Threshold {
			q.thr[en.T.ID] = en
		}
	case snap.Spec.Policy == SMA:
		if e.opts.Mode == UpdateStream {
			return fmt.Errorf("core: SMA is unavailable under update streams (expiry order unknown, Section 7)")
		}
		if snap.Spec.K <= 0 {
			return fmt.Errorf("core: K must be positive, got %d", snap.Spec.K)
		}
		q.kind = topkKind
		q.sky = skyband.New(snap.Spec.K)
		if err := q.sky.Restore(snap.Skyband); err != nil {
			return err
		}
	case snap.Spec.Policy == TMA:
		if snap.Spec.K <= 0 {
			return fmt.Errorf("core: K must be positive, got %d", snap.Spec.K)
		}
		q.kind = topkKind
		q.top = append([]Entry(nil), snap.Top...)
		q.topIDs = make(map[uint64]struct{}, len(q.top))
		for _, en := range q.top {
			q.topIDs[en.T.ID] = struct{}{}
		}
	default:
		return fmt.Errorf("core: unknown policy %v", snap.Spec.Policy)
	}
	for _, en := range snap.LastReported {
		q.lastIDs[en.T.ID] = en
	}

	e.queries[q.id] = q
	if q.sky != nil {
		e.numSMA++
	}
	// Index the query at its registration score (threshold queries: the
	// fixed threshold).
	bound := snap.RegScore
	if q.kind == thresholdKind {
		bound = *snap.Spec.Threshold
	}
	if err := e.qi.Add(q.id, snap.Spec.F, bound); err != nil {
		panic(err)
	}
	return nil
}

// QueryCost is one registered query's attributed maintenance cost.
type QueryCost struct {
	ID   QueryID
	Cost int64
}

// AppendQueryCosts appends every registered query's (id, cumulative cost)
// pair to out and returns the extended slice, ordered by id. This is the
// cheap read the shard rebalancer polls each pass — O(Q), no grid scan.
func (e *Engine) AppendQueryCosts(out []QueryCost) []QueryCost {
	start := len(out)
	for id, q := range e.queries {
		//topk:allow determinism the appended tail is sorted by id via the tail re-slice below
		out = append(out, QueryCost{ID: id, Cost: q.cost})
	}
	tail := out[start:]
	sort.Slice(tail, func(i, j int) bool { return tail[i].ID < tail[j].ID })
	return out
}
