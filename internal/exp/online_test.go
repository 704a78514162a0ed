package exp

import "testing"

// TestOnlineBeatsStatic pins the experiment's acceptance criterion: on a
// workload with alternating traffic phases, the online controller's total
// virtual time beats reorder-once-and-hope, and both beat never reordering.
func TestOnlineBeatsStatic(t *testing.T) {
	cfg := DefaultOnline
	rows, err := OnlineReorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]OnlineRow{}
	for _, r := range rows {
		m[r.Mode] = r
	}
	base, static, onl := m["baseline"], m["static"], m["online"]
	if static.TotalMs >= base.TotalMs {
		t.Errorf("static reordering did not beat the baseline: %.2fms vs %.2fms", static.TotalMs, base.TotalMs)
	}
	if onl.TotalMs >= static.TotalMs {
		t.Errorf("online did not beat static-once: %.2fms vs %.2fms", onl.TotalMs, static.TotalMs)
	}
	// One remap per phase boundary plus the initial mapping; never one per
	// window (the drift gate must hold within a phase).
	if onl.Remaps != cfg.Phases {
		t.Errorf("online remapped %d times over %d phases", onl.Remaps, cfg.Phases)
	}
}

// TestOnlineOneNodeRemapsNothing: at np 24 every rank sits on one PlaFRIM
// node, so every mapping is the identity, and neither the static row nor
// the online row may count a remap.
func TestOnlineOneNodeRemapsNothing(t *testing.T) {
	cfg := DefaultOnline
	cfg.NP = 24
	rows, err := OnlineReorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Remaps != 0 {
			t.Errorf("%s row counts %d remaps on one node, want 0", r.Mode, r.Remaps)
		}
	}
}
