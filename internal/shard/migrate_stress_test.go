package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"topkmon/internal/core"
	"topkmon/internal/stream"
	"topkmon/internal/window"
)

// TestMigrationConcurrencyStress migrates queries while pipelined-style
// asynchronous cycles (StepAsync tickets in flight), Register, Unregister,
// Result and Stats all run concurrently, with the auto-rebalancer armed on
// top. Under -race this is the memory-safety proof for live migration; the
// functional anchor is CheckInfluence after every cycle — a half-moved
// query (on zero or two engines, or indexed at a torn bound) breaks the
// invariant immediately.
func TestMigrationConcurrencyStress(t *testing.T) {
	const (
		dims     = 3
		shards   = 4
		cycles   = 50
		rate     = 80
		churners = 2
		movers   = 2
	)
	sh, err := NewWithConfig(
		core.Options{Dims: dims, Window: window.Count(1200), TargetCells: 64},
		shards,
		Config{
			Placement: LeastLoadedPlacement{},
			Rebalance: RebalanceConfig{Interval: 4, Threshold: 1.05, MaxMoves: 4},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	gen := stream.NewGenerator(stream.IND, dims, 9)
	if _, err := sh.Step(0, gen.Batch(1200, 0)); err != nil {
		t.Fatal(err)
	}

	// Shared pool of live query ids the movers pick targets from. Movers
	// race with churners unregistering, so ErrUnknownQuery is an expected
	// benign outcome for them.
	var poolMu sync.Mutex
	var pool []core.QueryID

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, churners+movers+1)
	var migrated atomic.Int64

	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qg := stream.NewQueryGenerator(stream.FuncLinear, dims, seed)
			rng := rand.New(rand.NewSource(seed))
			var owned []core.QueryID
			for !stop.Load() {
				switch {
				case len(owned) < 10:
					k := 1 + rng.Intn(6)
					if rng.Intn(8) == 0 {
						k = 30 + rng.Intn(30) // the occasional hot query
					}
					id, err := sh.Register(core.QuerySpec{F: qg.Next(), K: k, Policy: core.SMA})
					if err != nil {
						errc <- err
						return
					}
					owned = append(owned, id)
					poolMu.Lock()
					pool = append(pool, id)
					poolMu.Unlock()
				case rng.Intn(2) == 0:
					if _, err := sh.Result(owned[rng.Intn(len(owned))]); err != nil {
						errc <- err
						return
					}
					sh.Stats()
					sh.ShardLoads()
				default:
					j := rng.Intn(len(owned))
					id := owned[j]
					if err := sh.Unregister(id); err != nil {
						errc <- err
						return
					}
					owned = append(owned[:j], owned[j+1:]...)
					poolMu.Lock()
					for i, p := range pool {
						if p == id {
							pool = append(pool[:i], pool[i+1:]...)
							break
						}
					}
					poolMu.Unlock()
				}
			}
			for _, id := range owned {
				if err := sh.Unregister(id); err != nil {
					errc <- err
					return
				}
			}
		}(int64(300 + c))
	}

	// Movers: explicit MigrateQuery calls racing with everything else.
	for m := 0; m < movers; m++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				poolMu.Lock()
				var id core.QueryID
				ok := len(pool) > 0
				if ok {
					id = pool[rng.Intn(len(pool))]
				}
				poolMu.Unlock()
				if !ok {
					continue
				}
				err := sh.MigrateQuery(id, rng.Intn(shards))
				switch {
				case err == nil:
					migrated.Add(1)
				case errors.Is(err, core.ErrUnknownQuery):
					// Lost the race with an Unregister — expected.
				default:
					errc <- err
					return
				}
			}
		}(int64(500 + m))
	}

	// Driver: asynchronous cycles through StepAsync tickets (the pipeline's
	// fast path), waited in submission order, with the influence invariant
	// checked on every engine after every cycle.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		var pending []*Ticket
		flush := func() bool {
			for _, tk := range pending {
				if _, err := tk.Wait(); err != nil {
					errc <- err
					return false
				}
			}
			pending = pending[:0]
			return true
		}
		for ts := int64(1); ts <= cycles; ts++ {
			tk, err := sh.StepAsync(ts, gen.Batch(rate, ts))
			if err != nil {
				errc <- err
				return
			}
			pending = append(pending, tk)
			if len(pending) == 3 {
				if !flush() {
					return
				}
				if err := sh.CheckInfluence(); err != nil {
					errc <- fmt.Errorf("cycle %d: %w", ts, err)
					return
				}
			}
		}
		flush()
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := sh.CheckInfluence(); err != nil {
		t.Fatal(err)
	}
	if n := sh.NumQueries(); n != 0 {
		t.Fatalf("expected all churned queries unregistered, %d left", n)
	}
	total := 0
	for _, l := range sh.ShardLoads() {
		total += l.Queries
	}
	if total != 0 {
		t.Fatalf("shard engines still own %d queries after full churn", total)
	}
}

// TestResultDuringMigrationStress pins the router's stale-route retry:
// Result reads a query's route without holding the router lock across the
// worker call, so a migration can move the query in between. One reader
// polls Result while a mover bounces the same query between shards; every
// Result must succeed.
func TestResultDuringMigrationStress(t *testing.T) {
	const (
		dims   = 2
		shards = 3
		moves  = 2000
	)
	sh, err := New(core.Options{Dims: dims, Window: window.Count(200), TargetCells: 16}, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	gen := stream.NewGenerator(stream.IND, dims, 5)
	if _, err := sh.Step(0, gen.Batch(200, 0)); err != nil {
		t.Fatal(err)
	}
	id, err := sh.Register(core.QuerySpec{F: stream.NewQueryGenerator(stream.FuncLinear, dims, 6).Next(), K: 3, Policy: core.TMA})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		for !stop.Load() {
			if _, err := sh.Result(id); err != nil {
				errc <- err
				return
			}
		}
	}()
	for i := 0; i < moves; i++ {
		if err := sh.MigrateQuery(id, i%shards); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	stop.Store(true)
	if err := <-errc; err != nil {
		t.Fatalf("Result during migration: %v", err)
	}
}
