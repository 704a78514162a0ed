package mpi

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mpimon/internal/pml"
)

// TestSkeletonRejectsNegativeSize: every size-only call refuses a negative
// size with SendN's error on every rank, and no message reaches the pml
// counters.
func TestSkeletonRejectsNegativeSize(t *testing.T) {
	const np = 4
	for _, tc := range []struct {
		name string
		call func(c *Comm) error
		want string
	}{
		{"AllgatherN", func(c *Comm) error { return c.AllgatherN(-5) }, "mpi: negative message size -5"},
		{"SendrecvN", func(c *Comm) error {
			_, err := c.SendrecvN((c.Rank()+1)%np, 0, -7, (c.Rank()+np-1)%np, 0)
			return err
		}, "mpi: negative message size -7"},
		{"BcastN", func(c *Comm) error { return c.BcastN(-3, 0) }, "mpi: negative message size -3"},
		{"ReduceN", func(c *Comm) error { return c.ReduceN(-2, 0) }, "mpi: negative message size -2"},
		{"GatherN", func(c *Comm) error { return c.GatherN(-1, 0) }, "mpi: negative message size -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorld(testMachine(), np, WithEngine(EngineEvent))
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]error, np)
			w.Run(func(c *Comm) error {
				errs[c.Rank()] = tc.call(c)
				return errs[c.Rank()]
			})
			for r, err := range errs {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("rank %d: %v, want %q", r, err, tc.want)
				}
				for _, cl := range []pml.Class{pml.P2P, pml.Coll} {
					if b := w.Proc(r).Monitor().TotalBytes(cl); b != 0 {
						t.Errorf("rank %d: %d %v bytes recorded", r, b, cl)
					}
				}
			}
		})
	}
}

// TestVCollectivesRejectBadBlocks: a negative count, or a displacement so
// large that displacement+count overflows, is an error on every rank that
// validates the block, before that rank's first message — not a slice
// panic, and not a Scatterv root that has sent the blocks before the bad
// one.
func TestVCollectivesRejectBadBlocks(t *testing.T) {
	const np = 4
	layout := func(bad, count, displ int) (counts, displs []int) {
		counts, displs = []int{4, 4, 4, 4}, []int{0, 4, 8, 12}
		counts[bad], displs[bad] = count, displ
		return counts, displs
	}
	for _, tc := range []struct {
		name string
		call func(c *Comm) error
		want string // the error of every rank that validates, rank 0 alone if rooted
		all  bool
	}{
		{"Gatherv", func(c *Comm) error {
			counts, displs := layout(2, -3, 5)
			return c.Gatherv(make([]byte, 4), make([]byte, 16), counts, displs, 0)
		}, "mpi: gatherv block 2 (-3 bytes at 5) outside recv buffer of 16 bytes", false},
		{"Scatterv", func(c *Comm) error {
			counts, displs := layout(2, -3, 5)
			return c.Scatterv(make([]byte, 16), counts, displs, make([]byte, 4), 0)
		}, "mpi: scatterv block 2 (-3 bytes at 5) outside send buffer of 16 bytes", false},
		{"Allgatherv", func(c *Comm) error {
			counts, displs := layout(1, 4, math.MaxInt)
			return c.Allgatherv(make([]byte, 4), make([]byte, 16), counts, displs)
		}, fmt.Sprintf("mpi: allgatherv block 1 (4 bytes at %d) outside recv buffer of 16 bytes", math.MaxInt), true},
		{"Alltoallv", func(c *Comm) error {
			counts, displs := layout(1, 4, math.MaxInt)
			return c.Alltoallv(make([]byte, 16), counts, displs, make([]byte, 16), []int{4, 4, 4, 4}, []int{0, 4, 8, 12})
		}, fmt.Sprintf("mpi: alltoallv block 1 (4 bytes at %d) outside send buffer of 16 bytes", math.MaxInt), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWorld(testMachine(), np, WithEngine(EngineEvent))
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]error, np)
			w.Run(func(c *Comm) error {
				errs[c.Rank()] = tc.call(c)
				return errs[c.Rank()]
			})
			for r, err := range errs {
				if r > 0 && !tc.all {
					break
				}
				if err == nil || err.Error() != tc.want {
					t.Errorf("rank %d: %v, want %q", r, err, tc.want)
				}
				if b := w.Proc(r).Monitor().TotalBytes(pml.Coll); b != 0 {
					t.Errorf("rank %d sent %d bytes before it rejected the blocks", r, b)
				}
			}
		})
	}
}
