package mpi

import (
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
