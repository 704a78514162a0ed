package exp

import (
	"testing"

	"mpimon/internal/cg"
)

// TestReorderVirtualTimeRepeats pins what the mapping-cost model buys: an
// experiment that reorders is a pure function of its configuration. One
// Fig. 6 cell, one Fig. 7 row and one online-controller run are each
// executed twice and must agree exactly — T2 and the totals used to carry
// the host's TreeMatch wall time.
func TestReorderVirtualTimeRepeats(t *testing.T) {
	twice := func(name string, run func() (any, error)) {
		t.Helper()
		a, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a != b {
			t.Errorf("%s differs between two runs:\n  %+v\n  %+v", name, a, b)
		}
	}
	twice("Fig. 6 cell (np 48, 1 int, 1 iter)", func() (any, error) {
		return heatCell(48, 1, 1)
	})
	// The smallest class/np pair of the CG skeleton that communicates.
	twice("Fig. 7 row (class S, np 2, round-robin)", func() (any, error) {
		return cgRow(cg.ClassS, 2, "rr", 1, DefaultCG.Seed)
	})
	cfg := DefaultOnline
	cfg.Phases, cfg.WindowsPerPhase = 2, 2
	twice("online controller run", func() (any, error) {
		total, remaps, err := onlineRun(cfg, "online")
		return [2]int64{int64(total), int64(remaps)}, err
	})
}
