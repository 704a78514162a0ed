package elastic

import (
	"errors"
	"testing"
	"time"

	"mpimon/internal/faults"
	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/sparsemat"
)

// TestReconfigureEndToEnd simulates the full Sec. 7 scenario: an
// application runs and is monitored on 3 nodes; a fault plan kills one
// node mid-run, the survivors recover with Revoke/Shrink and compute the
// surviving resource set from the runtime's own failure knowledge
// (SurvivorCores); the runtime then relaunches the job on those cores,
// either naively (packing ranks onto the free cores in order) or with the
// matrix-driven Reconfigure plan. The topology-aware relaunch must be
// faster.
func TestReconfigureEndToEnd(t *testing.T) {
	const np = 12
	mach := netsim.PlaFRIM(3) // 3 nodes x 24 cores; we use 4 ranks per node
	topo := mach.Topo
	oldPlace := make([]int, np)
	for i := range oldPlace {
		oldPlace[i] = (i%3)*24 + i/3 // round-robin over the 3 nodes
	}

	// The workload: three 4-rank cliques (consecutive ranks), which the
	// round-robin placement splits across all nodes.
	phase := func(c *mpi.Comm) error {
		sub, err := c.Split(c.Rank()/4, c.Rank())
		if err != nil {
			return err
		}
		return sub.AllgatherN(200_000)
	}

	// Phase 1: run and monitor on the full machine. The fault plan kills
	// node 2 (ranks 2, 5, 8, 11) at one virtual hour — far beyond the
	// monitored iteration and gather, so the matrix is safely out before
	// the explicit clock advance below trips the death.
	const deathAt = time.Hour
	fplan := &faults.Plan{Deaths: []faults.NodeDeath{{Node: 2, At: deathAt}}}
	var mat []uint64
	var avail []int
	w1, err := mpi.NewWorld(mach, np, mpi.WithPlacement(oldPlace), mpi.WithFaultPlan(fplan))
	if err != nil {
		t.Fatal(err)
	}
	err = w1.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		if err := phase(c); err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
		_, m, err := s.RootgatherData(0, monitoring.AllComm)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mat = m
		}
		if err := s.Free(); err != nil {
			return err
		}

		// Synchronize before advancing the clock: the first barrier cannot
		// complete anywhere until every rank has entered it (dissemination
		// hears transitively from everyone, including rank 0, which only
		// enters once the gather above is fully received), so no rank can
		// race past the death time while monitored traffic is in flight.
		// The second barrier then materializes node 2's failure; with the
		// clocks skewed by hours, death may surface in either.
		advance := func() error {
			if err := c.Barrier(); err != nil {
				return err
			}
			c.Proc().Compute(2 * deathAt)
			return c.Barrier()
		}
		if err := advance(); err != nil {
			if c.Proc().Failed() {
				return err // dying ranks unwind, the world keeps running
			}
			if !errors.Is(err, mpi.ErrProcFailed) && !errors.Is(err, mpi.ErrRevoked) {
				return err
			}
			if err := c.Revoke(); err != nil {
				return err
			}
		}
		nc, err := c.Shrink()
		if err != nil {
			return err
		}
		if nc.Rank() == 0 {
			avail = SurvivorCores(nc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w1.FailedRanks(); len(got) != 4 {
		t.Fatalf("FailedRanks = %v, want the 4 ranks of node 2", got)
	}
	if len(avail) != 2*24 {
		t.Fatalf("SurvivorCores returned %d cores, want 48 (nodes 0 and 1)", len(avail))
	}
	for _, core := range avail {
		if topo.NodeOf(core) == 2 {
			t.Fatalf("SurvivorCores includes core %d on the dead node", core)
		}
	}
	relaunch := func(placement []int) time.Duration {
		w, err := mpi.NewWorld(cloneMachine(mach), np, mpi.WithPlacement(placement))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
			for i := 0; i < 5; i++ {
				if err := phase(c); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxClock()
	}

	// Naive relaunch: pack survivors onto the free cores in order.
	naive := relaunch(avail[:np])

	// Matrix-driven relaunch.
	plan, err := ReconfigureView(sparsemat.DenseView(mat, np), topo, oldPlace, avail, 0)
	if err != nil {
		t.Fatal(err)
	}
	smart := relaunch(plan.Placement)

	// The naive packing happens to co-locate the cliques too (they are
	// consecutive ranks), so demand only that the plan is at least as
	// good; with a scrambled naive order it must strictly win.
	if smart > naive {
		t.Fatalf("matrix-driven relaunch slower than naive: %v vs %v", smart, naive)
	}
	scrambled := make([]int, np)
	for i := range scrambled {
		// Deterministic shuffle across the whole surviving-core set, so
		// cliques end up straddling both nodes.
		scrambled[i] = avail[(i*19)%len(avail)]
	}
	if dup := hasDuplicates(scrambled); dup {
		t.Fatal("test bug: scrambled placement has duplicates")
	}
	bad := relaunch(scrambled)
	if smart >= bad {
		t.Fatalf("matrix-driven relaunch (%v) should beat a scrambled one (%v)", smart, bad)
	}
}

func hasDuplicates(v []int) bool {
	seen := map[int]bool{}
	for _, x := range v {
		if seen[x] {
			return true
		}
		seen[x] = true
	}
	return false
}

func cloneMachine(m *netsim.Machine) *netsim.Machine {
	c := *m
	return &c
}
