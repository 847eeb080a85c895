// Package qindex is the query index: the dual of the paper's per-cell
// influence lists. Instead of every query registering itself on every
// cell of its influence region (O(queries × cells) memory, rebuilt by
// walks on every recomputation), queries of the same preference-function
// family are stored columnar — weight vectors packed in one flat
// dims-strided []float64 with parallel id/bound columns — and clustered
// by quantized normalized weight vector. An arrival probes the index:
// per cell the engine gets the short list of clusters whose score upper
// bound over the cell reaches the cluster's lowest member bound, scores
// the cell's new tuples against a whole cluster with one multi-query
// kernel call, and skips members whose own bound exceeds the cell bound.
//
// Correctness rests on one property of the engine's event handlers:
// delivering a superset of the (event, query) pairs the influence lists
// would deliver never changes results — insert admissions re-check every
// tuple against the query's own filter, and expire handlers are
// membership tests. The index therefore only needs conservative upper
// bounds, and keeps them cheap with lazy staleness in the safe
// direction:
//
//   - a cluster's componentwise weight envelope (wHi) only ever grows in
//     place; removals leave it stale-high (bounds stay conservative);
//   - a cluster's minimum member bound (minBound) lowers eagerly and is
//     re-tightened only after enough raises accumulate (stale-low: the
//     cluster is probed a little more often than necessary);
//   - per-cell cluster lists are cached and invalidated by one global
//     epoch, bumped only by events that could add a (cell, cluster)
//     pair: a new cluster, envelope growth, or a walk bound dropping.
//     Everything else (member removal, bound raises, cluster death)
//     leaves caches valid as supersets.
//
// The walk bound carries hysteresis: it sits a few percent below the
// minimum member bound, so small oscillations of a query's kth score
// do not bump the epoch every cycle.
//
// The //topk:deterministic directive below puts this package under the
// topklint determinism analyzer: no wall-clock reads, no unseeded
// randomness, no map-iteration-order leaks into outputs, no ad-hoc
// goroutines. The engine's transcripts must be a pure function of the
// input stream; see internal/analysis and doc.go for the rule catalog.
//
//topk:deterministic
package qindex

import (
	"fmt"
	"math"

	"topkmon/internal/geom"
	"topkmon/internal/grid"
	"topkmon/internal/simd"
)

// QueryID aliases the engine's query identifier.
type QueryID = grid.QueryID

// Geometry supplies cell rectangles — satisfied by *grid.Grid.
type Geometry interface {
	NumCells() int
	RectInto(idx int, out *geom.Rect)
}

// family identifies a preference-function family with a packed columnar
// representation and a multi-query kernel.
type family uint8

const (
	famLinear family = iota
	famQuad
	famProduct
	// famGeneric covers scoring functions outside the three packed
	// families; each gets a singleton cluster scored pointwise.
	famGeneric
)

// familyOf classifies a scoring function and extracts its parameter
// vector (a fresh copy) for the packed families.
func familyOf(f geom.ScoringFunction) (family, []float64) {
	switch fn := f.(type) {
	case *geom.Linear:
		return famLinear, fn.Weights()
	case *geom.Quadratic:
		return famQuad, fn.Weights()
	case *geom.Product:
		return famProduct, fn.Offsets()
	default:
		return famGeneric, nil
	}
}

// Cluster is one query cluster: members of the same family whose
// normalized weight vectors quantize to the same key, stored columnar.
type Cluster struct {
	fam  family
	dims int
	key  string

	// Member columns: weights is dims-strided (member j occupies
	// weights[j*dims:(j+1)*dims]; empty for famGeneric, which keeps the
	// scoring functions instead), ids and bounds are parallel.
	weights []float64
	fns     []geom.ScoringFunction
	ids     []QueryID
	bounds  []float64

	// wHi is the componentwise maximum of member parameter vectors —
	// the envelope the cell upper bound is computed from. It only grows
	// in place (growth bumps the index epoch); removals leave it
	// stale-high. nil for famGeneric.
	wHi []float64
	// minBound tracks the minimum member bound, possibly stale-low.
	minBound float64
	// walkBound is the bound the cached cell lists were published
	// against: a cell whose upper bound is below walkBound appears in
	// no cache. Invariant: walkBound <= minBound <= every member bound
	// (up to staleness in the safe direction). Lowering it bumps the
	// epoch; it sits slack below minBound so bound oscillations don't.
	walkBound float64
	// raises counts bound raises since minBound was last re-tightened.
	raises int
}

// Len returns the member count.
func (c *Cluster) Len() int { return len(c.ids) }

// MinBound returns the cluster's (possibly stale-low) minimum member
// bound — the cluster-level skip threshold.
func (c *Cluster) MinBound() float64 { return c.minBound }

// IDAt returns member j's query id.
func (c *Cluster) IDAt(j int) QueryID { return c.ids[j] }

// BoundAt returns member j's bound.
func (c *Cluster) BoundAt(j int) float64 { return c.bounds[j] }

// ScoreMembers scores every point of the dims-strided block coords for
// members [base, end), filling dst row-major: member base+q's scores are
// dst[q*n:(q+1)*n] with n = len(coords)/dims. Scores are bit-identical
// to geom.ScoreBlockInto per member — the packed families go through the
// multi-query kernels, generic members through the pointwise path.
//
//topk:hot
func (c *Cluster) ScoreMembers(dst, coords []float64, base, end, dims int) {
	switch c.fam {
	case famLinear:
		simd.DotBlockMulti(dst, coords, c.weights[base*dims:end*dims], dims)
	case famQuad:
		simd.QuadBlockMulti(dst, coords, c.weights[base*dims:end*dims], dims)
	case famProduct:
		simd.ProductBlockMulti(dst, coords, c.weights[base*dims:end*dims], dims)
	default:
		n := len(coords) / dims
		for j := base; j < end; j++ {
			geom.ScoreBlockInto(c.fns[j], coords, dims, dst[(j-base)*n:(j-base+1)*n])
		}
	}
}

// ScoreEnvelope fills dst with each point's score against the cluster's
// weight envelope wHi — an upper bound on every member's score of the
// same point, since coordinates (and their squares) are non-negative in
// the unit workspace and product offsets are non-negative, so a
// componentwise larger parameter vector can only raise the score. The
// bound holds bitwise, not just in exact arithmetic: the envelope goes
// through the same single-query kernels the multi-query rows are
// bit-identical to, so both sides accumulate in the same order, and
// float rounding is monotone per operation. Returns false for generic
// clusters, which have no envelope.
//
//topk:hot
func (c *Cluster) ScoreEnvelope(dst, coords []float64) bool {
	switch c.fam {
	case famLinear:
		simd.DotBlockInto(dst, coords, c.wHi)
	case famQuad:
		simd.QuadBlockInto(dst, coords, c.wHi)
	case famProduct:
		simd.ProductBlockInto(dst, coords, c.wHi)
	default:
		return false
	}
	return true
}

// ub returns the conservative maximum score any member can reach inside
// rect r (coordinates in [0,1]). For the packed families it evaluates
// the envelope wHi at the per-dimension best corner; componentwise
// wHi >= every member weight makes it an upper bound for each member
// (coordinates and their squares are non-negative, product offsets are
// non-negative by construction). corner is dims of scratch for the
// generic path.
func (c *Cluster) ub(r *geom.Rect, corner geom.Vector) float64 {
	switch c.fam {
	case famLinear:
		var s float64
		for i, w := range c.wHi {
			if w >= 0 {
				s += w * r.Hi[i]
			} else {
				s += w * r.Lo[i]
			}
		}
		return s
	case famQuad:
		var s float64
		for i, w := range c.wHi {
			if w >= 0 {
				s += w * r.Hi[i] * r.Hi[i]
			} else {
				s += w * r.Lo[i] * r.Lo[i]
			}
		}
		return s
	case famProduct:
		s := 1.0
		for i, w := range c.wHi {
			s *= w + r.Hi[i]
		}
		return s
	default:
		f := c.fns[0]
		geom.BestCornerInto(f, *r, corner)
		return f.Score(corner)
	}
}

// CellEntry is one cluster's cached presence on a cell: the cluster and
// its score upper bound over the cell at cache-build time (stale-high
// with respect to later removals, which is the safe direction).
type CellEntry struct {
	C  *Cluster
	UB float64
}

// memberPos locates a query inside its cluster.
type memberPos struct {
	c    *Cluster
	slot int
}

// Index is the shared query index of one engine. Not safe for concurrent
// use (the engine is single-threaded per shard).
type Index struct {
	dims     int
	geo      Geometry
	clusters []*Cluster
	byKey    map[string]*Cluster
	loc      map[QueryID]memberPos

	// epoch invalidates the per-cell cluster caches wholesale; a cell's
	// cache is rebuilt lazily on the first probe after a bump.
	epoch     uint64
	cellEpoch []uint64
	cells     [][]CellEntry

	// scratch for cache rebuilds.
	rect   geom.Rect
	corner geom.Vector
	keyBuf []byte
}

// New constructs an empty index over the given geometry.
func New(dims int, geo Geometry) *Index {
	return &Index{
		dims:      dims,
		geo:       geo,
		byKey:     make(map[string]*Cluster),
		loc:       make(map[QueryID]memberPos),
		epoch:     1, // cellEpoch zero value == stale
		cellEpoch: make([]uint64, geo.NumCells()),
		cells:     make([][]CellEntry, geo.NumCells()),
		rect:      geom.Rect{Lo: make(geom.Vector, dims), Hi: make(geom.Vector, dims)},
		corner:    make(geom.Vector, dims),
	}
}

// keyLevels quantizes one normalized component to 16 levels.
func keyLevel(v, maxAbs float64) byte {
	if maxAbs == 0 {
		return 8
	}
	lvl := int((v/maxAbs + 1) * 8)
	if lvl < 0 {
		lvl = 0
	} else if lvl > 15 {
		lvl = 15
	}
	return byte(lvl)
}

// clusterKey buckets a parameter vector: one byte of family, then each
// component normalized by the vector's L-infinity norm and quantized to
// 16 levels. Near-duplicate weight vectors (and scaled copies of the
// same direction) land in the same cluster.
func (ix *Index) clusterKey(fam family, w []float64) string {
	maxAbs := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	buf := append(ix.keyBuf[:0], byte(fam))
	for _, v := range w {
		buf = append(buf, keyLevel(v, maxAbs))
	}
	ix.keyBuf = buf
	return string(buf)
}

// walkSlack returns the hysteresis gap kept between a cluster's minimum
// member bound and its published walk bound: a few percent of the
// bound's magnitude, so small downward oscillations of a kth score stay
// inside the already-published region instead of bumping the epoch.
func walkSlack(b float64) float64 {
	if math.IsInf(b, 0) {
		return 0
	}
	return 0.05 * math.Abs(b)
}

// Add registers a query with the index. bound is the delivery threshold:
// the query must see every stream event in a cell whose clipped maximum
// score reaches bound (the engine passes regScore for top-k queries and
// the threshold for threshold queries; +Inf parks a query that will
// receive its real bound via SetBound before the next cycle).
func (ix *Index) Add(id QueryID, f geom.ScoringFunction, bound float64) error {
	if _, dup := ix.loc[id]; dup {
		return fmt.Errorf("qindex: query %d already indexed", id)
	}
	fam, w := familyOf(f)
	var key string
	if fam == famGeneric {
		key = fmt.Sprintf("g%d", id)
	} else {
		key = ix.clusterKey(fam, w)
	}
	bump := false
	c := ix.byKey[key]
	if c == nil {
		c = &Cluster{
			fam:       fam,
			dims:      ix.dims,
			key:       key,
			minBound:  math.Inf(1),
			walkBound: math.Inf(1),
		}
		if fam != famGeneric {
			c.wHi = make([]float64, ix.dims)
			for i := range c.wHi {
				c.wHi[i] = math.Inf(-1)
			}
		}
		ix.byKey[key] = c
		ix.clusters = append(ix.clusters, c)
		bump = true
	}
	c.ids = append(c.ids, id)
	c.bounds = append(c.bounds, bound)
	if fam == famGeneric {
		c.fns = append(c.fns, f)
	} else {
		c.weights = append(c.weights, w...)
		for i, wi := range w {
			if wi > c.wHi[i] {
				c.wHi[i] = wi
				bump = true
			}
		}
	}
	if bound < c.minBound {
		c.minBound = bound
	}
	if bound < c.walkBound {
		c.walkBound = bound - walkSlack(bound)
		bump = true
	}
	ix.loc[id] = memberPos{c: c, slot: len(c.ids) - 1}
	if bump {
		ix.epoch++
	}
	return nil
}

// SetBound updates a query's delivery bound (after a from-scratch
// recomputation changed its regScore).
func (ix *Index) SetBound(id QueryID, bound float64) error {
	p, ok := ix.loc[id]
	if !ok {
		return fmt.Errorf("qindex: unknown query %d", id)
	}
	c := p.c
	old := c.bounds[p.slot]
	c.bounds[p.slot] = bound
	switch {
	case bound < old:
		if bound < c.minBound {
			c.minBound = bound
		}
		if bound < c.walkBound {
			c.walkBound = bound - walkSlack(bound)
			ix.epoch++
		}
	case bound > old:
		// minBound may now be stale-low; re-tighten once enough raises
		// accumulate rather than rescanning the column every time.
		c.raises++
		if c.raises >= 16 && c.raises >= len(c.ids)/4 {
			c.refreshMinBound()
		}
	}
	return nil
}

// refreshMinBound rescans the bound column, tightening minBound and
// lifting walkBound back under it. Raising walkBound never invalidates
// caches (already-published lists remain supersets; future rebuilds
// publish less), so no epoch bump.
func (c *Cluster) refreshMinBound() {
	mb := math.Inf(1)
	for _, b := range c.bounds {
		if b < mb {
			mb = b
		}
	}
	c.minBound = mb
	if wb := mb - walkSlack(mb); wb > c.walkBound {
		c.walkBound = wb
	}
	c.raises = 0
}

// Remove drops a query from the index. An emptied cluster is unlinked
// from future cache rebuilds; stale cached entries still pointing at it
// see Len() == 0 and skip it, and re-creating the key later makes a new
// cluster, which bumps the epoch.
func (ix *Index) Remove(id QueryID) error {
	p, ok := ix.loc[id]
	if !ok {
		return fmt.Errorf("qindex: unknown query %d", id)
	}
	delete(ix.loc, id)
	c, slot := p.c, p.slot
	last := len(c.ids) - 1
	if slot != last {
		c.ids[slot] = c.ids[last]
		c.bounds[slot] = c.bounds[last]
		if c.fam == famGeneric {
			c.fns[slot] = c.fns[last]
		} else {
			copy(c.weights[slot*c.dims:(slot+1)*c.dims], c.weights[last*c.dims:(last+1)*c.dims])
		}
		moved := c.ids[slot]
		ix.loc[moved] = memberPos{c: c, slot: slot}
	}
	c.ids = c.ids[:last]
	c.bounds = c.bounds[:last]
	if c.fam == famGeneric {
		c.fns[last] = nil
		c.fns = c.fns[:last]
	} else {
		c.weights = c.weights[:last*c.dims]
	}
	// wHi and minBound go stale in the safe direction; empty clusters
	// are unlinked entirely.
	if len(c.ids) == 0 {
		delete(ix.byKey, c.key)
		for i, cc := range ix.clusters {
			if cc == c {
				ix.clusters[i] = ix.clusters[len(ix.clusters)-1]
				ix.clusters = ix.clusters[:len(ix.clusters)-1]
				break
			}
		}
	}
	return nil
}

// BoundOf returns a query's current bound.
func (ix *Index) BoundOf(id QueryID) (float64, bool) {
	p, ok := ix.loc[id]
	if !ok {
		return 0, false
	}
	return p.c.bounds[p.slot], true
}

// NumQueries returns the number of indexed queries.
func (ix *Index) NumQueries() int { return len(ix.loc) }

// NumClusters returns the number of live clusters.
func (ix *Index) NumClusters() int { return len(ix.clusters) }

// Epoch returns the current cache-invalidation epoch (tests).
func (ix *Index) Epoch() uint64 { return ix.epoch }

// CellEntries returns the clusters that may contain a query wanting
// events in cell idx, with their cached score upper bounds. The list is
// rebuilt lazily when the epoch moved; between bumps a probe is O(len)
// of the returned list. The returned slice is owned by the index and
// valid until the next CellEntries call for the same cell.
func (ix *Index) CellEntries(idx int) []CellEntry {
	if ix.cellEpoch[idx] == ix.epoch {
		return ix.cells[idx]
	}
	lst := ix.cells[idx][:0]
	ix.geo.RectInto(idx, &ix.rect)
	for _, c := range ix.clusters {
		if len(c.ids) == 0 {
			continue
		}
		ub := c.ub(&ix.rect, ix.corner)
		if ub >= c.walkBound {
			lst = append(lst, CellEntry{C: c, UB: ub})
		}
	}
	ix.cells[idx] = lst
	ix.cellEpoch[idx] = ix.epoch
	return lst
}

// MemoryBytes estimates the index footprint: the columnar cluster
// storage (O(queries)) plus the cached cell lists (O(cells + cached
// pairs)) and the locator map.
func (ix *Index) MemoryBytes() int64 {
	const (
		clusterBase  = 160
		cellEntrySz  = 16 // cluster pointer + ub
		locEntrySz   = 32 // map overhead + memberPos
		keyEntrySz   = 48 // map overhead + key string
		cellSliceHdr = 24
	)
	total := int64(len(ix.loc))*locEntrySz + int64(len(ix.byKey))*keyEntrySz
	total += int64(len(ix.cellEpoch)) * 8
	for _, c := range ix.clusters {
		total += clusterBase
		total += int64(cap(c.weights))*8 + int64(cap(c.bounds))*8
		total += int64(cap(c.ids)) * 4
		total += int64(len(c.wHi)) * 8
		total += int64(cap(c.fns)) * 16
	}
	for _, lst := range ix.cells {
		total += cellSliceHdr + int64(cap(lst))*cellEntrySz
	}
	return total
}

// Validate checks the index invariants — the safety argument in code
// form. It is O(queries + fresh cells × clusters) and meant for the
// differential/stress suites, mirroring Engine.CheckInfluence:
//
//   - locator consistency: every indexed query sits where loc says;
//   - per cluster: wHi dominates every member componentwise, minBound
//     is <= every member bound, walkBound <= minBound;
//   - cache completeness: on every fresh cell (cache epoch == current),
//     each live cluster whose upper bound reaches its walkBound is
//     present with exactly that bound (the envelope cannot have changed
//     within an epoch).
func (ix *Index) Validate() error {
	for id, p := range ix.loc {
		if p.slot >= len(p.c.ids) || p.c.ids[p.slot] != id {
			return fmt.Errorf("qindex: query %d locator points at wrong slot", id)
		}
	}
	for _, c := range ix.clusters {
		mb := math.Inf(1)
		for j, b := range c.bounds {
			if b < mb {
				mb = b
			}
			if c.fam != famGeneric {
				for i := 0; i < c.dims; i++ {
					if c.weights[j*c.dims+i] > c.wHi[i] {
						return fmt.Errorf("qindex: cluster %q member %d weight %d above envelope", c.key, j, i)
					}
				}
			}
		}
		if c.minBound > mb {
			return fmt.Errorf("qindex: cluster %q minBound %g above true min %g", c.key, c.minBound, mb)
		}
		if c.walkBound > c.minBound {
			return fmt.Errorf("qindex: cluster %q walkBound %g above minBound %g", c.key, c.walkBound, c.minBound)
		}
	}
	for idx := range ix.cells {
		if ix.cellEpoch[idx] != ix.epoch {
			continue
		}
		ix.geo.RectInto(idx, &ix.rect)
		cached := make(map[*Cluster]float64, len(ix.cells[idx]))
		for _, ce := range ix.cells[idx] {
			cached[ce.C] = ce.UB
		}
		for _, c := range ix.clusters {
			if len(c.ids) == 0 {
				continue
			}
			ub := c.ub(&ix.rect, ix.corner)
			got, present := cached[c]
			if ub >= c.walkBound && !present {
				return fmt.Errorf("qindex: cell %d missing cluster %q (ub %g >= walkBound %g)", idx, c.key, ub, c.walkBound)
			}
			if present && got != ub {
				return fmt.Errorf("qindex: cell %d cluster %q cached ub %g != fresh %g", idx, c.key, got, ub)
			}
		}
	}
	return nil
}
