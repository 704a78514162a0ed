package reorder

import (
	"fmt"
	"testing"

	"mpimon/internal/golden"
	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/treematch"
)

// TestFig1LoopEventsPinned runs the paper's Fig. 1 loop at the bench's
// reorder-loop shape — np=192 on 8 nodes, round-robin placement, 8 allgather
// groups of 24 — and pins the event engine's dispatch count, the virtual
// makespan and the world's state (testdata/golden/TestFig1LoopEventsPinned.txt):
// the engine may change how it resumes a rank, never which rank runs next.
// It also pins how many of those dispatches switched to a coroutine: almost
// every dispatch goes to a rank parked in a collective — the ring
// allgathers, the monitoring gathers' trees, the barriers — whose schedule
// cursor the picker advances in place, so a change that stops doing that
// shows here.
func TestFig1LoopEventsPinned(t *testing.T) {
	const nodes, np, groups, block = 8, 8 * 24, 8, 200 << 10
	mach := netsim.PlaFRIM(nodes)
	rr, err := treematch.PlacementRoundRobin(np, mach.Topo)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(mach, np, mpi.WithPlacement(rr), mpi.WithEngine(mpi.EngineEvent))
	if err != nil {
		t.Fatal(err)
	}
	phase := func(c *mpi.Comm) error { return groupPhase(c, groups, block) }
	err = w.Run(func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		for i := 0; i < 3; i++ {
			if err := phase(c); err != nil {
				return err
			}
		}
		opt, _, err := MonitorAndReorder(env, c, phase)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := phase(opt); err != nil {
				return err
			}
		}
		return opt.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.EngineStats()
	golden.Check(t, fmt.Sprintf("events %d\nswitches %d\nmakespan %d\n%s",
		st.Events, st.Switches, int64(w.MaxClock()), golden.Digest(w.State())))
}
