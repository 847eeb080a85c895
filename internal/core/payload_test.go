package core

import (
	"slices"
	"testing"

	"topkmon/internal/geom"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// churnEngine returns an engine whose window holds exactly one batch of
// width tuples, with u top-k queries on distinct near-identical linear
// functions, and a source of batches. Every batch replaces the whole
// window, so each cycle changes every query's result (k Added and k
// Removed entries per query) and the cycles repeat in shape. Batches
// carry their cycle timestamp in the tuples' TS.
func churnEngine(t *testing.T, u int, seed int64) (*Engine, func() []*stream.Tuple) {
	t.Helper()
	const width = 40
	e := mustEngine(t, Options{Dims: 2, Window: window.Count(width), GridRes: 4})
	gen := stream.NewGenerator(stream.IND, 2, seed)
	ts := int64(0)
	next := func() []*stream.Tuple {
		ts++
		return gen.Batch(width, ts)
	}
	first := next()
	if _, err := e.Step(first[0].TS, first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < u; i++ {
		f := geom.NewLinear(1, 1+float64(i)*1e-6)
		if _, err := e.Register(QuerySpec{F: f, K: 3, Policy: TMA}); err != nil {
			t.Fatal(err)
		}
	}
	return e, next
}

// TestUpdatePayloadsAreIndependent pins the Update contract: the deltas
// of one cycle share a backing array, but every Added and Removed slice
// is capacity-clipped, so appending to one Update never changes another.
func TestUpdatePayloadsAreIndependent(t *testing.T) {
	e, next := churnEngine(t, 8, 1)
	for cycle := 0; cycle < 5; cycle++ {
		batch := next()
		updates, err := e.Step(batch[0].TS, batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(updates) < 2 {
			t.Fatalf("cycle %d: %d updates, want every query to change", cycle, len(updates))
		}
		before := make([]Update, len(updates))
		for i, u := range updates {
			if cap(u.Added) != len(u.Added) || cap(u.Removed) != len(u.Removed) {
				t.Fatalf("cycle %d query %d: slices not capacity-clipped", cycle, u.Query)
			}
			before[i] = Update{Query: u.Query, Added: slices.Clone(u.Added), Removed: slices.Clone(u.Removed)}
		}
		junk := Entry{T: &stream.Tuple{ID: 1 << 60}, Score: -1}
		for i := range updates {
			updates[i].Added = append(updates[i].Added, junk, junk)
			updates[i].Removed = append(updates[i].Removed, junk, junk)
			for j := range updates {
				if j == i {
					continue
				}
				u, b := updates[j], before[j]
				if j > i { // not yet appended to
					if !slices.Equal(u.Added, b.Added) || !slices.Equal(u.Removed, b.Removed) {
						t.Fatalf("cycle %d: appending to query %d's update changed query %d's", cycle, updates[i].Query, u.Query)
					}
					continue
				}
				if !slices.Equal(u.Added[:len(b.Added)], b.Added) || !slices.Equal(u.Removed[:len(b.Removed)], b.Removed) {
					t.Fatalf("cycle %d: appending to query %d's update changed query %d's", cycle, updates[i].Query, u.Query)
				}
			}
		}
	}
}

// TestUpdatePayloadAllocsIndependentOfCount pins the cost side of the
// contract: a cycle's payload is one entry slab plus one Update slice,
// so a cycle emitting 2U updates allocates no more than one emitting U
// on the same data.
func TestUpdatePayloadAllocsIndependentOfCount(t *testing.T) {
	allocs := func(u int) float64 {
		e, next := churnEngine(t, u, 2)
		const warm, runs = 20, 50
		batches := make([][]*stream.Tuple, warm+runs+1)
		for i := range batches {
			batches[i] = next()
		}
		i := 0
		step := func() {
			updates, err := e.Step(batches[i][0].TS, batches[i])
			if err != nil {
				t.Fatal(err)
			}
			if len(updates) != u {
				t.Fatalf("%d updates, want %d", len(updates), u)
			}
			i++
		}
		for range warm {
			step()
		}
		return testing.AllocsPerRun(runs, step)
	}
	const u = 16
	if a, b := allocs(u), allocs(2*u); b > a {
		t.Fatalf("%d updates/cycle: %v allocs per cycle; %d updates/cycle: %v (payload allocations must not grow with the update count)", u, a, 2*u, b)
	}
}
