package core

import (
	"fmt"
	"math"

	"topkmon/internal/geom"
)

// ruleWants reports whether cell idx belongs to query q's influence region
// under the registration rule of Section 6 —
//
//	top-k queries:     cells whose (constraint-clipped) maxscore is
//	                   >= regScore (all cells intersecting the constraint
//	                   while the result is underfull, regScore = -Inf);
//	threshold queries: cells whose clipped maxscore is > the threshold.
//
// r is caller-provided scratch sized to the workspace dimensionality; its
// contents are overwritten. The query index reproduces the rule from
// per-query bounds; the introspection surface counts it per query.
func (e *Engine) ruleWants(q *query, idx int, r *geom.Rect) bool {
	e.g.RectInto(idx, r)
	if q.spec.Constraint != nil {
		if !r.IntersectInto(*q.spec.Constraint, r) {
			return false
		}
	}
	ms := geom.MaxScore(q.spec.F, *r)
	if q.kind == thresholdKind {
		return ms > *q.spec.Threshold
	}
	if math.IsInf(q.regScore, -1) {
		return true
	}
	return ms >= q.regScore
}

// scratchRect allocates a workspace-sized rectangle for ruleWants loops.
func (e *Engine) scratchRect() geom.Rect {
	d := e.opts.Dims
	return geom.Rect{Lo: make(geom.Vector, d), Hi: make(geom.Vector, d)}
}

// CheckInfluence verifies the query-index invariant: the index's internal
// invariants hold (locator consistency, weight-envelope dominance, bound
// ordering, cell-cache completeness), every registered query's indexed
// bound equals its registration score (threshold queries: the threshold),
// and the index holds exactly the registered queries.
//
// It is intended for continuous verification in tests:
// the shard monitors and the ingestion pipeline expose it as well, so
// stress and differential suites can assert the invariant after every
// processing cycle rather than only at end-of-run.
func (e *Engine) CheckInfluence() error {
	if err := e.qi.Validate(); err != nil {
		return err
	}
	for id, q := range e.queries {
		want := q.regScore
		if q.kind == thresholdKind {
			want = *q.spec.Threshold
		}
		got, ok := e.qi.BoundOf(id)
		if !ok {
			return fmt.Errorf("query %d: not present in the query index", id)
		}
		if got != want {
			return fmt.Errorf("query %d: indexed bound %g, want %g", id, got, want)
		}
	}
	if e.qi.NumQueries() != len(e.queries) {
		return fmt.Errorf("query index holds %d queries, engine %d", e.qi.NumQueries(), len(e.queries))
	}
	return nil
}
