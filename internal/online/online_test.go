package online

import (
	"fmt"
	"testing"
	"time"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/topology"
)

func testMachine(nodes, cores int) *netsim.Machine {
	return &netsim.Machine{
		Topo: topology.MustNew(nodes, cores),
		Links: []netsim.LinkParams{
			{Latency: 2 * time.Microsecond, Bandwidth: 1e9},
			{Latency: 200 * time.Nanosecond, Bandwidth: 8e9},
			{Latency: 50 * time.Nanosecond, Bandwidth: 16e9},
		},
		SendOverhead: 100 * time.Nanosecond,
		RecvOverhead: 100 * time.Nanosecond,
		EagerLimit:   4096,
		Contention:   true,
	}
}

// roundRobin places rank i on node i%nodes — the pessimal placement for
// consecutive-group traffic.
func roundRobin(np, nodes, cores int) []int {
	place := make([]int, np)
	for i := range place {
		place[i] = (i%nodes)*cores + i/nodes
	}
	return place
}

// groupedAllgather makes blocks of consecutive ranks exchange; strided
// flips the grouping so the traffic pattern shifts between phases.
func groupedAllgather(c *mpi.Comm, groups, bytes int, strided bool) error {
	gs := c.Size() / groups
	color := c.Rank() / gs
	if strided {
		color = c.Rank() % groups
	}
	sub, err := c.Split(color, c.Rank())
	if err != nil {
		return err
	}
	return sub.AllgatherN(bytes)
}

// runController executes steps windows of the controller over a phase
// schedule (strided[i] selects the traffic pattern of window i) and
// returns rank 0's decisions.
func runController(t *testing.T, strided []bool, opts ...Option) []Decision {
	t.Helper()
	const nodes, cores = 2, 4
	const np = nodes * cores
	const groups, chunk = 2, 64 << 10
	w, err := mpi.NewWorld(testMachine(nodes, cores), np,
		mpi.WithPlacement(roundRobin(np, nodes, cores)))
	if err != nil {
		t.Fatal(err)
	}
	var decs []Decision
	err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		ctl, err := New(env, c, opts...)
		if err != nil {
			return err
		}
		defer ctl.Close()
		root := c.Rank() == 0
		for _, s := range strided {
			s := s
			_, dec, err := ctl.Step(func(cc *mpi.Comm) error {
				return groupedAllgather(cc, groups, chunk, s)
			})
			if err != nil {
				return err
			}
			if root {
				decs = append(decs, dec)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decs
}

func TestControllerRemapsOnPhaseShift(t *testing.T) {
	// Three consecutive-group windows, then three strided ones. Expect the
	// initial mapping on window 0, stability through window 2, a remap
	// when the pattern flips, and stability again.
	decs := runController(t,
		[]bool{false, false, false, true, true, true},
		WithWindow(1))
	if len(decs) != 6 {
		t.Fatalf("got %d decisions, want 6", len(decs))
	}
	if !decs[0].Remapped || decs[0].Reason != "initial mapping" {
		t.Fatalf("window 0 = %+v, want the initial mapping", decs[0])
	}
	for i := 1; i <= 2; i++ {
		if decs[i].Remapped {
			t.Fatalf("window %d remapped under a stable pattern: %+v", i, decs[i])
		}
	}
	var shifted bool
	for i := 3; i < 6; i++ {
		shifted = shifted || decs[i].Remapped
	}
	if !shifted {
		t.Fatalf("no remap after the phase shift: %+v", decs[3:])
	}
	if decs[5].Remapped {
		t.Fatalf("still remapping two windows after the shift: %+v", decs[5])
	}
}

func TestControllerStableWorkloadRemapsOnce(t *testing.T) {
	decs := runController(t,
		[]bool{false, false, false, false},
		WithWindow(2))
	remaps := 0
	for _, d := range decs {
		if d.Remapped {
			remaps++
		}
	}
	if remaps != 1 {
		t.Fatalf("stable workload remapped %d times, want exactly the initial mapping", remaps)
	}
	last := decs[len(decs)-1]
	if last.Reason != "stable: drift below threshold" {
		t.Fatalf("steady-state reason = %q", last.Reason)
	}
}

func TestControllerRespectsRemapBudget(t *testing.T) {
	decs := runController(t,
		[]bool{false, false, true, true},
		WithWindow(1), WithMaxRemaps(1))
	remaps := 0
	for _, d := range decs {
		if d.Remapped {
			remaps++
		}
	}
	if remaps != 1 {
		t.Fatalf("budget of 1 produced %d remaps", remaps)
	}
	found := false
	for _, d := range decs {
		found = found || d.Reason == "remap budget exhausted"
	}
	if !found {
		t.Fatalf("no decision reported the exhausted budget: %+v", decs)
	}
}

func TestControllerMigrationCostVetoesRemap(t *testing.T) {
	// Make each moved rank carry so much state that no modelled gain can
	// ever pay for the redistribution: after the free initial mapping the
	// phase shift must be detected but declined.
	decs := runController(t,
		[]bool{false, false, true, true},
		WithWindow(1), WithStateBytes(1<<50), WithLinkBandwidth(1e9))
	for i, d := range decs[1:] {
		if d.Remapped {
			t.Fatalf("window %d remapped despite a prohibitive migration cost: %+v", i+1, d)
		}
	}
	vetoed := false
	for _, d := range decs {
		vetoed = vetoed || d.Reason == "predicted gain below remap cost"
	}
	if !vetoed {
		t.Fatalf("no decision was vetoed on cost: %+v", decs)
	}
}

// pairExchange makes each rank trade chunks with rank^mask — a pattern
// whose shifts are fixable by single core swaps, so the warm-started
// refinement can follow them without a full TreeMatch.
func pairExchange(c *mpi.Comm, mask, bytes int) error {
	partner := c.Rank() ^ mask
	_, err := c.SendrecvN(partner, 0, bytes, partner, 0)
	return err
}

func TestControllerWarmRemapOnModerateDrift(t *testing.T) {
	// Adjacent pairs first (the initial mapping packs them), then distant
	// pairs. With the full-remap drift raised out of reach, the post-shift
	// remap must take the warm-started path and still improve the cost.
	const nodes, cores = 2, 4
	const np = nodes * cores
	w, err := mpi.NewWorld(testMachine(nodes, cores), np,
		mpi.WithPlacement(roundRobin(np, nodes, cores)))
	if err != nil {
		t.Fatal(err)
	}
	var decs []Decision
	err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		ctl, err := New(env, c, WithWindow(1), WithFullRemapDrift(10))
		if err != nil {
			return err
		}
		defer ctl.Close()
		root := c.Rank() == 0
		for _, mask := range []int{1, 1, np / 2, np / 2} {
			mask := mask
			_, dec, err := ctl.Step(func(cc *mpi.Comm) error {
				return pairExchange(cc, mask, 64<<10)
			})
			if err != nil {
				return err
			}
			if root {
				decs = append(decs, dec)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var warm *Decision
	for i := 1; i < len(decs); i++ {
		if decs[i].Remapped {
			warm = &decs[i]
			break
		}
	}
	if warm == nil {
		t.Fatalf("no remap after the shift: %+v", decs)
	}
	if !warm.Warm {
		t.Fatalf("post-shift remap did not take the warm path: %+v", *warm)
	}
	if warm.CostAfter >= warm.CostBefore {
		t.Fatalf("warm remap accepted without improvement: %+v", *warm)
	}
	if warm.Moved == 0 {
		t.Fatalf("warm remap moved no ranks: %+v", *warm)
	}
}

func TestControllerRebindRestartsOptimization(t *testing.T) {
	const nodes, cores = 2, 4
	const np = nodes * cores
	w, err := mpi.NewWorld(testMachine(nodes, cores), np,
		mpi.WithPlacement(roundRobin(np, nodes, cores)))
	if err != nil {
		t.Fatal(err)
	}
	var afterRebind Decision
	err = w.RunWithTimeout(time.Minute, func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		ctl, err := New(env, c, WithWindow(1))
		if err != nil {
			return err
		}
		defer ctl.Close()
		phase := func(cc *mpi.Comm) error { return groupedAllgather(cc, 2, 64<<10, false) }
		for i := 0; i < 2; i++ {
			if _, _, err := ctl.Step(phase); err != nil {
				return err
			}
		}
		// Simulate the elastic path handing over a rebuilt communicator:
		// rebind to a same-membership split of the current one.
		nc, err := ctl.Comm().Split(0, ctl.Comm().Rank())
		if err != nil {
			return err
		}
		if err := ctl.Rebind(nc); err != nil {
			return err
		}
		if ctl.Comm() != nc {
			return fmt.Errorf("controller not bound to the new communicator")
		}
		_, dec, err := ctl.Step(phase)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			afterRebind = dec
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The reference was dropped, so the first post-rebind window must
	// re-optimize from scratch — and on the already-reordered membership
	// that means either a fresh initial mapping or the discovery that the
	// placement is already right.
	switch afterRebind.Reason {
	case "initial mapping", "identity mapping", "no better placement":
	default:
		t.Fatalf("post-rebind window decided %+v, want a from-scratch optimization", afterRebind)
	}
}
