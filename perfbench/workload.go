package main

import (
	"fmt"
	"math/rand"

	"topkmon/pkg/topkmon"
)

// dims is the workspace dimensionality of every workload.
const dims = 4

// workload fixes one benchmark input regime; BENCHMARK.json records why
// each was chosen. Everything the program under test receives — tuples and
// query specs — is generated from these fields and the run's seed by the
// benchmark itself.
type workload struct {
	name string
	dist topkmon.Distribution
	// window is the count-window size N; perCycle the arrivals r per cycle.
	window, perCycle int
	// queries is the registered query count Q; k the top-k cardinality.
	queries, k int
	policy     topkmon.Policy
	// thresholdFrac > 0 registers near-duplicate threshold queries at this
	// fraction of each function's maximum score instead of top-k queries.
	thresholdFrac float64
	// churn queries are unregistered (oldest first) and as many new ones
	// registered before every cycle.
	churn int
	// gridRes fixes the grid resolution (0: the engine's default).
	gridRes int
	// checkSample bounds how many queries the correctness gate compares
	// (0: all of them).
	checkSample int
	// openLoop selects the full durable stack driven at rate cycles per
	// second with one sentinel query and one marker tuple per batch.
	openLoop bool
	rate     int
	// shards, pipeDepth and ckptEvery configure the open-loop stack.
	shards, pipeDepth, ckptEvery int
	// reads is how many Result calls on random live queries follow each
	// cycle's Step (closed loop) or each send (open loop).
	reads int
	// matchEvery > 0 makes subscription matches arrive at a fixed rate and
	// size: every matchEvery-th cycle carries the match point of the next
	// cluster in turn (see matchPoints), and other tuples that come near
	// any threshold are redrawn.
	matchEvery int
}

var workloads = []workload{
	{
		name: "paper-tma-ant",
		dist: topkmon.ANT, window: 100000, perCycle: 1000, queries: 1000, k: 20,
		policy: topkmon.TMA, reads: 10,
	},
	{
		name: "pubsub-churn",
		dist: topkmon.IND, window: 20000, perCycle: 200, queries: 100000,
		policy: topkmon.TMA, thresholdFrac: 0.95, churn: 10, gridRes: 8,
		checkSample: 1000, reads: 1, matchEvery: 60,
	},
	{
		name: "durable-open-loop",
		dist: topkmon.IND, window: 100000, perCycle: 1000, queries: 200, k: 20,
		policy: topkmon.SMA, openLoop: true, rate: 100,
		shards: 2, pipeDepth: 4, ckptEvery: 500, reads: 1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// query is one generated query spec, kept by the benchmark so the
// correctness gate scores tuples with its own copy of the weights.
type query struct {
	w         []float64
	k         int
	threshold float64
	isThresh  bool
	sentinel  bool
}

func (q query) spec(policy topkmon.Policy) topkmon.QuerySpec {
	s := topkmon.QuerySpec{F: topkmon.Linear(q.w...), K: q.k, Policy: policy}
	if q.isThresh {
		thr := q.threshold
		s.Threshold = &thr
	}
	return s
}

// score is the reference linear score, accumulated in index order with
// every product rounded, like the engine's default bit-exact kernels.
func (q query) score(v topkmon.Vector) float64 {
	s := 0.0
	for i, w := range q.w {
		s += float64(w * v[i])
	}
	return s
}

// sentinelQuery prefers the origin, where every marker tuple sits and no
// regular tuple does: its top-1 changes on every cycle that carries a
// marker, so every such cycle delivers an update, and markers score worst
// for every regular query, so they never enter a regular result.
func sentinelQuery() query {
	w := make([]float64, dims)
	for i := range w {
		w[i] = -1
	}
	return query{w: w, k: 1, sentinel: true}
}

// ndBases is the number of subscription clusters, and ndBaseSeed fixes
// their base preference vectors.
const ndBases = 8

const ndBaseSeed = 3

// inputs generates a workload's tuples and queries from one seed.
type inputs struct {
	wl     workload
	gen    *topkmon.Generator
	qrng   *rand.Rand
	bases  [][]float64
	nextID uint64
	nextTS int64
	// markers plants one marker tuple at the end of every batch.
	markers bool
	// matches holds each cluster's match point; cycles counts batches.
	matches []topkmon.Vector
	cycles  int
}

func newInputs(wl workload, seed int64) *inputs {
	in := &inputs{
		wl:      wl,
		gen:     topkmon.NewGenerator(wl.dist, dims, seed),
		qrng:    rand.New(rand.NewSource(seed + 1)),
		markers: wl.openLoop,
	}
	if wl.thresholdFrac > 0 {
		// Near-duplicate subscriptions: ±1% jittered copies of ndBases base
		// preference vectors, the query-count sweep's pub/sub regime. The
		// bases are part of the workload, not of the seed: how often a
		// tuple clears a cluster's threshold depends strongly on its base,
		// and the seed varies the jitter, the cluster sizes and the data.
		brng := rand.New(rand.NewSource(ndBaseSeed))
		for i := 0; i < ndBases; i++ {
			w := make([]float64, dims)
			for d := range w {
				w[d] = 0.2 + brng.Float64()*0.8
			}
			in.bases = append(in.bases, w)
		}
		if wl.matchEvery > 0 {
			in.matches = matchPoints(in.bases, wl.thresholdFrac)
		}
	}
	return in
}

// batch returns the next cycle's arrivals and its timestamp. With markers
// on, the last tuple of the batch is the cycle's marker at the origin.
func (in *inputs) batch(n int) ([]*topkmon.Tuple, int64) {
	in.nextTS++
	in.cycles++
	out := make([]*topkmon.Tuple, n)
	for i := range out {
		var v topkmon.Vector
		switch {
		case in.markers && i == n-1:
			v = make(topkmon.Vector, dims)
		case in.wl.matchEvery > 0 && i == 0 && in.cycles%in.wl.matchEvery == 0:
			c := (in.cycles / in.wl.matchEvery) % len(in.matches)
			v = append(topkmon.Vector(nil), in.matches[c]...)
		default:
			v = in.gen.Vec()
			for in.wl.matchEvery > 0 && in.nearMatch(v) {
				v = in.gen.Vec()
			}
		}
		out[i] = &topkmon.Tuple{ID: in.nextID, Seq: in.nextID, TS: in.nextTS, Vec: v}
		in.nextID++
	}
	return out, in.nextTS
}

// weightedMean is base's weighted mean of v: the fraction of the maximum
// score a linear query with weights base gives v.
func weightedMean(base []float64, v topkmon.Vector) float64 {
	s, w := 0.0, 0.0
	for i, b := range base {
		s += b * v[i]
		w += b
	}
	return s / w
}

// nearMatch reports whether v lies in the match region: within reach of
// some cluster's threshold, since ±1% weight jitter moves a weighted mean
// by less than matchMargin.
func (in *inputs) nearMatch(v topkmon.Vector) bool {
	for _, b := range in.bases {
		if weightedMean(b, v) > in.wl.thresholdFrac-matchMargin {
			return true
		}
	}
	return false
}

// matchMargin bounds how far ±1% weight jitter moves a weighted mean.
const matchMargin = 0.02

// matchPoints returns, for each cluster, the fixed tuple its matching
// events carry: a point that clears every threshold of the cluster by the
// jitter margin and comes near as few other clusters' thresholds as
// possible, picked from a fixed sample of the unit cube. Fixed points make
// every event of a cluster deliver to the same subscriptions, so a run's
// delivery volume does not hinge on where a handful of random matches
// happened to fall.
func matchPoints(bases [][]float64, t float64) []topkmon.Vector {
	rng := rand.New(rand.NewSource(ndBaseSeed))
	best := make([]topkmon.Vector, len(bases))
	bestOthers := make([]int, len(bases))
	for i := 0; i < 200000; i++ {
		v := make(topkmon.Vector, dims)
		for d := range v {
			v[d] = 1 - 0.3*rng.Float64()
		}
		near := 0
		for _, b := range bases {
			if weightedMean(b, v) > t-matchMargin {
				near++
			}
		}
		for c, b := range bases {
			if weightedMean(b, v) > t+matchMargin && (best[c] == nil || near-1 < bestOthers[c]) {
				best[c], bestOthers[c] = v, near-1
			}
		}
	}
	return best
}

// query draws the next regular query of the workload.
func (in *inputs) query() query {
	w := make([]float64, dims)
	if in.bases != nil {
		base := in.bases[in.qrng.Intn(len(in.bases))]
		for d := range w {
			w[d] = base[d] * (1 + 0.01*(in.qrng.Float64()*2-1))
		}
		max := 0.0
		for _, x := range w {
			max += x
		}
		return query{w: w, isThresh: true, threshold: in.wl.thresholdFrac * max}
	}
	for d := range w {
		w[d] = in.qrng.Float64()
	}
	return query{w: w, k: in.wl.k}
}

// ring is the benchmark's own copy of the count window: the last n
// tuples sent, oldest first once full.
type ring struct {
	buf  []*topkmon.Tuple
	head int
	full bool
}

func newRing(n int) *ring { return &ring{buf: make([]*topkmon.Tuple, n)} }

func (w *ring) push(ts []*topkmon.Tuple) {
	for _, t := range ts {
		w.buf[w.head] = t
		w.head++
		if w.head == len(w.buf) {
			w.head, w.full = 0, true
		}
	}
}

func (w *ring) tuples() []*topkmon.Tuple {
	if !w.full {
		return w.buf[:w.head]
	}
	return append(append([]*topkmon.Tuple(nil), w.buf[w.head:]...), w.buf[:w.head]...)
}
