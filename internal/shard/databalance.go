// Memory-aware tuple-routing rebalance for the data-partitioned monitor.
//
// Under data partitioning the balance knob is tuple routing, not query
// migration: every query already runs on every shard, so a hot shard is
// one whose slice of the stream is oversized — either in maintenance work
// or in resident memory. Routing goes through a bucket table (tuple id →
// bucket via the splitmix64 finalizer, bucket → shard via the table), and
// the rebalancer reassigns the hottest buckets of the costliest shard to
// the cheapest one every RebalanceConfig.Interval cycles.
//
// The per-shard cost is a weighted blend of two deterministic signals,
// each normalized to its fleet-wide total:
//
//	cost_i = work_i/Σwork + MemoryWeight × mem_i/Σmem
//
// where work_i is the shard's maintenance-counter delta since the last
// pass (influence events, cells processed, heap ops, cells walked — the
// same counters query rebalancing attributes) and mem_i is the engine's
// current footprint plus its cap-aware per-cell bytes high-water
// (core.Stats.MaxCellBytesHighWater — the grid's exact record of the
// largest cell it ever grew, the tuple-skew amplifier). The memory term
// is what lets a skewed tuple hash trigger rebalancing even when the
// skewed shard's per-cycle work hides it (many resident tuples, few
// result changes).
//
// Reassigning a bucket redirects only FUTURE arrivals. Tuples already
// resident stay on their insertion shard until they expire (or are
// deleted): the router pins every live tuple's placement in a map, so
// expiration slices and explicit deletions always reach the engine that
// indexed the tuple, and the memory gap closes at window-turnover speed
// rather than by bulk migration. Exactness is placement-independent — the
// k-way merge is exact whatever shard holds a tuple — which the
// differential test asserts by running a rebalancing monitor against the
// single engine byte for byte.
//
// Durability: the bucket table and the pinned placements that diverge
// from it are part of the checkpoint manifest (internal/recovery).
// Restoring the table before the tail replays makes re-ingestion land
// every tuple on its original shard, so the per-shard engine states
// import consistently.

package shard

import (
	"fmt"
	"sort"
	"sync"

	"topkmon/internal/stream"
)

// dataBuckets is the routing-table size: tuple ids hash onto this many
// buckets, and the table maps each bucket to a shard. 256 buckets keep
// the table trivially small while leaving every shard tens of buckets to
// shed in a skewed workload.
const dataBuckets = 256

// DefaultRebalanceMemoryWeight scales the memory term of the per-shard
// cost under data partitioning (see RebalanceConfig.MemoryWeight).
const DefaultRebalanceMemoryWeight = 1.0

// mix64 is the splitmix64 finalizer both routing hashes share.
func mix64(id uint64) uint64 {
	x := id
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// bucketOfTuple hashes a tuple id onto the routing-table bucket space.
func bucketOfTuple(id uint64) int {
	return int(mix64(id) % dataBuckets)
}

// routeArrivals splits an arrival batch into per-shard slices through the
// bucket table, pinning each new tuple's placement so later expiration or
// deletion reaches the same engine. Order within each slice is preserved
// (per-shard Seq order — and hence FIFO expiration — survives
// partitioning). Callers hold stepMu.
func (d *DataSharded) routeArrivals(batch []*stream.Tuple) [][]*stream.Tuple {
	parts := make([][]*stream.Tuple, len(d.workers))
	for _, t := range batch {
		si, ok := d.placed[t.ID]
		if !ok {
			b := bucketOfTuple(t.ID)
			si = d.route[b]
			d.bucketHits[b]++
			d.placed[t.ID] = si
		}
		parts[si] = append(parts[si], t)
	}
	return parts
}

// routeExpired splits an expiration run by each tuple's pinned placement,
// releasing the pins — an expiring tuple lives on exactly the shard that
// indexed it, whatever the bucket table says today. Callers hold stepMu.
func (d *DataSharded) routeExpired(batch []*stream.Tuple) [][]*stream.Tuple {
	parts := make([][]*stream.Tuple, len(d.workers))
	for _, t := range batch {
		si, ok := d.placed[t.ID]
		if ok {
			delete(d.placed, t.ID)
		} else {
			si = d.route[bucketOfTuple(t.ID)] // unknown id: engine reports it
		}
		parts[si] = append(parts[si], t)
	}
	return parts
}

// routeDeleted is routeExpired for explicit deletions (UpdateStream
// mode), which arrive as bare ids. Callers hold stepMu.
func (d *DataSharded) routeDeleted(ids []uint64) [][]uint64 {
	parts := make([][]uint64, len(d.workers))
	for _, id := range ids {
		si, ok := d.placed[id]
		if ok {
			delete(d.placed, id)
		} else {
			si = d.route[bucketOfTuple(id)] // unknown id: engine reports it
		}
		parts[si] = append(parts[si], id)
	}
	return parts
}

// maybeRebalanceLocked counts the completed cycle and runs a routing
// rebalance pass every Interval cycles. Callers hold stepMu and
// closeMu.RLock with the monitor open.
func (d *DataSharded) maybeRebalanceLocked() {
	if d.rebalance.Interval <= 0 {
		return
	}
	d.cycleCount++
	if d.cycleCount%int64(d.rebalance.Interval) != 0 {
		return
	}
	d.rebalanceLocked()
}

// rebalanceLocked runs one routing rebalance pass. The cycle's jobs have
// all been applied (runCycle waited on them) and stepMu blocks new ones,
// so the workers sit at a cycle barrier; the gather runs on their own
// goroutines like every other engine access. Callers hold stepMu and
// closeMu.RLock with the monitor open.
func (d *DataSharded) rebalanceLocked() {
	n := len(d.workers)
	work := make([]int64, n)
	mem := make([]int64, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i, w := range d.workers {
		w.jobs <- func() {
			defer wg.Done()
			st := w.eng.Stats()
			work[i] = st.InfluenceEvents + st.CellsProcessed + st.HeapOps
			mem[i] = w.eng.MemoryBytes() + st.MaxCellBytesHighWater
		}
	}
	wg.Wait()

	if d.prevWork == nil {
		d.prevWork = make([]int64, n)
	}
	workDelta := make([]int64, n)
	var totalWork, totalMem int64
	for i := range work {
		dw := work[i] - d.prevWork[i]
		if dw < 0 {
			dw = 0
		}
		d.prevWork[i] = work[i]
		workDelta[i] = dw
		totalWork += dw
		totalMem += mem[i]
	}

	// Normalized cost shares: both signals are deterministic for a given
	// stream, so passes reproduce run to run.
	wMem := d.rebalance.memoryWeight()
	cost := make([]float64, n)
	var sum float64
	for i := range cost {
		if totalWork > 0 {
			cost[i] = float64(workDelta[i]) / float64(totalWork)
		}
		if totalMem > 0 {
			cost[i] += wMem * float64(mem[i]) / float64(totalMem)
		}
		sum += cost[i]
	}
	hot, cold := 0, 0
	for i := 1; i < n; i++ {
		if cost[i] > cost[hot] {
			hot = i
		}
		if cost[i] < cost[cold] {
			cold = i
		}
	}
	defer func() {
		// Hotness is a property of the recent past: every pass decides on
		// the arrivals since the previous one.
		for b := range d.bucketHits {
			d.bucketHits[b] = 0
		}
	}()
	if hot == cold || cost[hot] <= d.rebalance.threshold()*(sum/float64(n)) {
		return
	}

	// Shed the hot shard's hottest buckets (most arrivals since the last
	// pass; ties by bucket index so passes reproduce) onto the cold one —
	// but only enough hit-weight to halve the arrival-rate gap between
	// them. Shedding everything that is hot would flip the imbalance to
	// the other side and oscillate; halving converges, and any residual
	// memory skew heals by window turnover once arrivals are balanced.
	type bucketLoad struct {
		bucket int
		hits   int64
	}
	var owned []bucketLoad
	var hotHits, coldHits int64
	for b, si := range d.route {
		switch si {
		case hot:
			hotHits += d.bucketHits[b]
			if d.bucketHits[b] > 0 {
				owned = append(owned, bucketLoad{bucket: b, hits: d.bucketHits[b]})
			}
		case cold:
			coldHits += d.bucketHits[b]
		}
	}
	halfGap := (hotHits - coldHits) / 2
	if halfGap <= 0 {
		return
	}
	sort.Slice(owned, func(a, b int) bool {
		if owned[a].hits != owned[b].hits {
			return owned[a].hits > owned[b].hits
		}
		return owned[a].bucket < owned[b].bucket
	})
	moved, movedHits := 0, int64(0)
	for _, bl := range owned {
		if moved >= d.rebalance.maxMoves() || movedHits >= halfGap {
			break
		}
		d.route[bl.bucket] = cold
		moved++
		movedHits += bl.hits
	}
	d.rebalances.Add(int64(moved))
}

// TuplePlacement pins one live tuple to the shard that indexed it — the
// divergence record a checkpoint carries for tuples whose bucket was
// reassigned after they arrived.
type TuplePlacement struct {
	ID    uint64
	Shard int
}

// ExportTupleRouting snapshots the bucket table and the placements that
// diverge from it (live tuples whose bucket moved after they arrived),
// sorted by tuple id. Together with the global tail they let a restore
// land every tuple back on its original shard.
func (d *DataSharded) ExportTupleRouting() ([]int, []TuplePlacement) {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	route := append([]int(nil), d.route...)
	var pins []TuplePlacement
	for id, si := range d.placed {
		if si != route[bucketOfTuple(id)] {
			pins = append(pins, TuplePlacement{ID: id, Shard: si})
		}
	}
	sort.Slice(pins, func(i, j int) bool { return pins[i].ID < pins[j].ID })
	return route, pins
}

// RestoreTupleRouting reinstates an exported bucket table and divergent
// placements on a freshly built monitor, before the global tail replays:
// replayed arrivals then route exactly as the checkpointed monitor routed
// them, so the per-shard engine states import consistently.
func (d *DataSharded) RestoreTupleRouting(route []int, pins []TuplePlacement) error {
	d.stepMu.Lock()
	defer d.stepMu.Unlock()
	if len(route) != dataBuckets {
		return fmt.Errorf("shard: tuple routing table has %d buckets, want %d", len(route), dataBuckets)
	}
	n := len(d.workers)
	for b, si := range route {
		if si < 0 || si >= n {
			return fmt.Errorf("shard: tuple routing bucket %d maps to shard %d of %d", b, si, n)
		}
	}
	copy(d.route, route)
	for _, p := range pins {
		if p.Shard < 0 || p.Shard >= n {
			return fmt.Errorf("shard: pinned tuple %d maps to shard %d of %d", p.ID, p.Shard, n)
		}
		d.placed[p.ID] = p.Shard
	}
	return nil
}

// Rebalances returns the number of bucket reassignments routing
// rebalancing has executed so far.
func (d *DataSharded) Rebalances() int64 { return d.rebalances.Load() }
