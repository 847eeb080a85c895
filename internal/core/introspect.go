package core

import (
	"fmt"
	"math"
	"sort"
)

// QueryInfo is a read-only snapshot of one registered query's state,
// exposed for dashboards, debugging and the experiment harness.
type QueryInfo struct {
	ID   QueryID
	Spec QuerySpec
	// Kind is "topk" or "threshold".
	Kind string
	// ResultSize is the current result cardinality.
	ResultSize int
	// TopScore is the query's current admission threshold (the kth score
	// for TMA, the kth score at the last recomputation for SMA, the fixed
	// threshold for threshold queries). NaN while the result is underfull.
	TopScore float64
	// SkybandSize is the current skyband cardinality (SMA queries only).
	SkybandSize int
	// InfluenceCells counts the grid cells in this query's influence
	// region: the cells the paper's influence lists would hold an entry
	// for (the O(C) bookkeeping term of Section 6).
	InfluenceCells int
	// Cost is the maintenance work attributed to this query so far:
	// influence events delivered to it plus the cells and heap operations
	// of its from-scratch computations. Deterministic for a given stream;
	// the shard rebalancer's input.
	Cost int64
}

// Queries returns a snapshot of every registered query, ordered by id.
// The index stores no per-cell entries, so InfluenceCells is counted from
// the registration rule: O(Q × cells), acceptable for an introspection
// surface.
func (e *Engine) Queries() []QueryInfo {
	r := e.scratchRect()
	out := make([]QueryInfo, 0, len(e.queries))
	for id, q := range e.queries {
		cells := 0
		for idx := 0; idx < e.g.NumCells(); idx++ {
			if e.ruleWants(q, idx, &r) {
				cells++
			}
		}
		info := QueryInfo{
			ID:             id,
			Spec:           q.spec,
			Kind:           "topk",
			InfluenceCells: cells,
			TopScore:       q.topScore,
			Cost:           q.cost,
		}
		if math.IsInf(q.topScore, -1) {
			info.TopScore = math.NaN()
		}
		switch q.kind {
		case thresholdKind:
			info.Kind = "threshold"
			info.ResultSize = len(q.thr)
		default:
			if q.spec.Policy == SMA {
				info.SkybandSize = q.sky.Len()
				info.ResultSize = q.sky.Len()
				if info.ResultSize > q.spec.K {
					info.ResultSize = q.spec.K
				}
			} else {
				info.ResultSize = len(q.top)
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// QueryInfoFor returns the snapshot of a single query.
func (e *Engine) QueryInfoFor(id QueryID) (QueryInfo, error) {
	for _, info := range e.Queries() {
		if info.ID == id {
			return info, nil
		}
	}
	return QueryInfo{}, unknownQuery(id)
}

// String renders a QueryInfo for logs.
func (qi QueryInfo) String() string {
	base := fmt.Sprintf("q%d %s f=%s", qi.ID, qi.Kind, qi.Spec.F)
	if qi.Kind == "threshold" {
		return fmt.Sprintf("%s threshold=%g results=%d cells=%d",
			base, *qi.Spec.Threshold, qi.ResultSize, qi.InfluenceCells)
	}
	return fmt.Sprintf("%s k=%d policy=%s results=%d skyband=%d cells=%d",
		base, qi.Spec.K, qi.Spec.Policy, qi.ResultSize, qi.SkybandSize, qi.InfluenceCells)
}
