package reorder

import (
	"testing"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/treematch"
)

// TestFig1LoopEventsPinned runs the paper's Fig. 1 loop at the bench's
// reorder-loop shape — np=192 on 8 nodes, round-robin placement, 8 allgather
// groups of 24 — and pins the event engine's dispatch count and the virtual
// makespan: the engine may change how it resumes a rank, never which rank
// runs next. It also pins how many of those dispatches switched to a
// coroutine: almost every dispatch goes to a rank parked in a collective —
// the ring allgathers, the monitoring gathers' trees, the barriers — whose
// schedule cursor the picker advances in place, so a change that stops
// doing that shows here.
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
	if got, want := st.Events, uint64(28390); got != want {
		t.Errorf("dispatched %d events, pinned %d", got, want)
	}
	if got, want := st.Switches, uint64(3470); got != want {
		t.Errorf("%d dispatches switched to a coroutine, pinned %d", got, want)
	}
	if got, want := int64(w.MaxClock()), int64(44493176); got != want {
		t.Errorf("virtual makespan %d ns, pinned %d", got, want)
	}
}
