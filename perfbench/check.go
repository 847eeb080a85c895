package main

import (
	"fmt"
	"math/rand"
	"sort"

	"topkmon/pkg/topkmon"
)

// reference computes a query's expected result by brute force over the
// benchmark's own copy of the window, in the repository's total order
// (stream.Better: higher score first, later arrival on ties).
func reference(q query, win []*topkmon.Tuple) []topkmon.Entry {
	var out []topkmon.Entry
	for _, t := range win {
		e := topkmon.Entry{T: t, Score: q.score(t.Vec)}
		if q.isThresh {
			if e.Score > q.threshold {
				out = append(out, e)
			}
			continue
		}
		// Top-k: keep out sorted and at most k long.
		if len(out) == q.k && !better(e, out[len(out)-1]) {
			continue
		}
		i := sort.Search(len(out), func(i int) bool { return better(e, out[i]) })
		if len(out) < q.k {
			out = append(out, topkmon.Entry{})
		}
		copy(out[i+1:], out[i:])
		out[i] = e
	}
	if q.isThresh {
		sort.Slice(out, func(i, j int) bool { return better(out[i], out[j]) })
	}
	return out
}

func better(a, b topkmon.Entry) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.T.Seq > b.T.Seq
}

// sameResult reports whether got matches want tuple for tuple and score
// for score; it returns a description of the first difference otherwise.
func sameResult(got, want []topkmon.Entry) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].T.ID != want[i].T.ID || got[i].Score != want[i].Score {
			return false, fmt.Sprintf("entry %d is tuple %d score %v, want tuple %d score %v",
				i, got[i].T.ID, got[i].Score, want[i].T.ID, want[i].Score)
		}
	}
	return true, ""
}

// checkResults compares the final result of every live query (or a seeded
// sample of sample queries when sample > 0) with the brute-force
// reference. It counts every Result call in rep and returns the number of
// mismatched queries.
func checkResults(live []liveQuery, win []*topkmon.Tuple, sample int, seed int64,
	result func(topkmon.QueryID) ([]topkmon.Entry, error), rep *report) (mismatched int) {
	picked := live
	if sample > 0 && sample < len(live) {
		rng := rand.New(rand.NewSource(seed + 7))
		picked = make([]liveQuery, 0, sample)
		for _, i := range rng.Perm(len(live))[:sample] {
			picked = append(picked, live[i])
		}
	}
	for _, lq := range picked {
		got, err := result(lq.id)
		rep.op(err)
		if err != nil {
			rep.note("check: Result(%d): %v", lq.id, err)
			continue
		}
		if ok, why := sameResult(got, reference(lq.q, win)); !ok {
			mismatched++
			if mismatched <= 3 {
				rep.note("check: query %d: %s", lq.id, why)
			}
		}
	}
	rep.mismatched += mismatched
	rep.note("check: %d of %d queries mismatched", mismatched, len(picked))
	return mismatched
}

// liveQuery pairs a registered query's id with the spec the benchmark
// generated for it.
type liveQuery struct {
	id topkmon.QueryID
	q  query
}
