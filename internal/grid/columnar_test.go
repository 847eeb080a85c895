package grid

import (
	"math/rand"
	"testing"

	"topkmon/internal/stream"
)

func tupleAt(id uint64, x, y float64) *stream.Tuple {
	return &stream.Tuple{ID: id, Seq: id, Vec: []float64{x, y}}
}

// TestDrainedCellReleasesBlock asserts the FIFO-cell memory guarantee: a
// cell whose last live tuple leaves — via head pops or via the
// out-of-order fallback — releases its backing columns entirely instead of
// retaining a nil'd prefix at high-water capacity.
func TestDrainedCellReleasesBlock(t *testing.T) {
	for _, order := range []string{"fifo", "out-of-order"} {
		t.Run(order, func(t *testing.T) {
			g := New(2, 4, FIFO)
			var tuples []*stream.Tuple
			for i := 0; i < 100; i++ {
				tu := tupleAt(uint64(i), 0.1, 0.1)
				tuples = append(tuples, tu)
				g.Insert(tu)
			}
			idx := g.IndexOf(tuples[0].Vec)
			if g.CellCapBytes(idx) == 0 {
				t.Fatal("cell reports no reserved bytes while full")
			}
			if order == "out-of-order" {
				// Remove back to front, exercising the linear fallback.
				for i := len(tuples) - 1; i >= 0; i-- {
					if !g.Remove(tuples[i]) {
						t.Fatalf("tuple %d not found", i)
					}
				}
			} else {
				for i, tu := range tuples {
					if !g.Remove(tu) {
						t.Fatalf("tuple %d not found", i)
					}
				}
			}
			if g.CellLen(idx) != 0 || g.NumPoints() != 0 {
				t.Fatalf("cell not drained: len=%d points=%d", g.CellLen(idx), g.NumPoints())
			}
			if got := g.CellCapBytes(idx); got != 0 {
				t.Fatalf("drained cell retains %d backing bytes", got)
			}
		})
	}
}

// TestDrainedCellReleasesBlockRandomMode is the same guarantee under the
// update-stream (hash) mode.
func TestDrainedCellReleasesBlockRandomMode(t *testing.T) {
	g := New(2, 4, Random)
	var tuples []*stream.Tuple
	for i := 0; i < 50; i++ {
		tu := tupleAt(uint64(i), 0.9, 0.9)
		tuples = append(tuples, tu)
		g.Insert(tu)
	}
	idx := g.IndexOf(tuples[0].Vec)
	rand.New(rand.NewSource(7)).Shuffle(len(tuples), func(i, j int) {
		tuples[i], tuples[j] = tuples[j], tuples[i]
	})
	for _, tu := range tuples {
		if !g.Remove(tu) {
			t.Fatalf("tuple %d not found", tu.ID)
		}
	}
	if got := g.CellCapBytes(idx); got != 0 {
		t.Fatalf("drained cell retains %d backing bytes", got)
	}
}

// TestCellBlockColumnsParallel asserts the columnar invariant: every column
// of a cell block describes the same tuples, in the same order, and the
// coordinate block is the dims-strided concatenation of their vectors.
func TestCellBlockColumnsParallel(t *testing.T) {
	for _, mode := range []Mode{FIFO, Random} {
		g := New(3, 2, mode)
		rng := rand.New(rand.NewSource(11))
		var tuples []*stream.Tuple
		for i := 0; i < 40; i++ {
			tu := &stream.Tuple{
				ID:  uint64(i),
				Seq: uint64(100 + i),
				TS:  int64(i / 4),
				Vec: []float64{rng.Float64(), rng.Float64(), rng.Float64()},
			}
			tuples = append(tuples, tu)
			g.Insert(tu)
		}
		// Delete a few to exercise head advance / swap-fill.
		for _, i := range []int{0, 7, 13} {
			g.Remove(tuples[i])
		}
		total := 0
		for idx := 0; idx < g.NumCells(); idx++ {
			blk := g.CellBlock(idx)
			if blk.Len() != g.CellLen(idx) {
				t.Fatalf("mode=%v cell %d: block len %d != cell len %d", mode, idx, blk.Len(), g.CellLen(idx))
			}
			for j := 0; j < blk.Len(); j++ {
				tu := blk.Ptrs[j]
				if blk.IDs[j] != tu.ID || blk.Seqs[j] != tu.Seq || blk.TSs[j] != tu.TS {
					t.Fatalf("mode=%v cell %d slot %d: columns diverge from tuple %v", mode, idx, j, tu)
				}
				for d := 0; d < 3; d++ {
					if blk.Coords[j*3+d] != tu.Vec[d] {
						t.Fatalf("mode=%v cell %d slot %d dim %d: coord %v != vec %v",
							mode, idx, j, d, blk.Coords[j*3+d], tu.Vec[d])
					}
				}
			}
			total += blk.Len()
		}
		if total != g.NumPoints() {
			t.Fatalf("mode=%v: blocks hold %d tuples, grid reports %d", mode, total, g.NumPoints())
		}
	}
}
