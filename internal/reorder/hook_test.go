package reorder_test

import (
	"testing"
	"time"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/online"
	"mpimon/internal/reorder"
	"mpimon/internal/sparsemat"
	"mpimon/internal/telemetry"
	"mpimon/internal/topology"
	"mpimon/internal/treematch"
)

// TestRefineDegradeCountedOnBothPaths: the counter hook lives in the one
// mapping call Reorder and the online controller share, so a capped
// refinement (fired here by the injected mapping function) shows up as
// mpimon_treematch_refine_degraded_total whichever path mapped.
func TestRefineDegradeCountedOnBothPaths(t *testing.T) {
	reorder.SwapMapFn(t, func(v *sparsemat.Matrix, topo *topology.Topology, place []int) ([]int, error) {
		if hook := treematch.OnRefineDegrade; hook != nil {
			hook(treematch.RefineDegrade{})
		}
		return reorder.ComputeMapping(v, topo, place)
	})
	ring := func(c *mpi.Comm) error {
		np := c.Size()
		_, err := c.SendrecvN((c.Rank()+1)%np, 0, 1000, (c.Rank()-1+np)%np, 0)
		return err
	}
	paths := map[string]func(*monitoring.Env, *mpi.Comm) error{
		"Reorder": func(env *monitoring.Env, c *mpi.Comm) error {
			_, _, err := reorder.MonitorAndReorder(env, c, ring)
			return err
		},
		"Controller.Step": func(env *monitoring.Env, c *mpi.Comm) error {
			ctl, err := online.New(env, c)
			if err != nil {
				return err
			}
			defer ctl.Close()
			_, _, err = ctl.Step(ring)
			return err
		},
	}
	for name, path := range paths {
		tel := telemetry.New()
		w, err := mpi.NewWorld(netsim.PlaFRIM(1), 4, mpi.WithTelemetry(tel))
		if err != nil {
			t.Fatal(err)
		}
		err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
			env, err := monitoring.Init(c.Proc())
			if err != nil {
				return err
			}
			defer env.Finalize()
			return path(env, c)
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := tel.Registry().CounterTotal("mpimon_treematch_refine_degraded_total"); n != 1 {
			t.Errorf("%s: refine-degraded counter = %d, want 1", name, n)
		}
	}
}
