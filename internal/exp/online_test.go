package exp

import "testing"

// TestOnlineBeatsStatic pins the experiment's acceptance criterion: on a
// workload with alternating traffic phases, the online controller's total
// virtual time beats reorder-once-and-hope, and both beat never reordering.
// Online against static is asserted on the event engine's deterministic
// clock only: under the goroutine engine the NIC reservation order follows
// the host scheduler and the online total has landed on either side of
// static's (ROADMAP item 1). That half keeps the wide static-vs-baseline
// ordering and the remap count.
func TestOnlineBeatsStatic(t *testing.T) {
	cfg := DefaultOnline
	cfg.Engines = []string{"goroutine", "event"}
	rows, err := OnlineReorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]map[string]OnlineRow{}
	for _, r := range rows {
		if byMode[r.Engine] == nil {
			byMode[r.Engine] = map[string]OnlineRow{}
		}
		byMode[r.Engine][r.Mode] = r
	}
	for _, eng := range cfg.Engines {
		m := byMode[eng]
		base, static, onl := m["baseline"], m["static"], m["online"]
		if static.TotalMs >= base.TotalMs {
			t.Errorf("%s: static reordering did not beat the baseline: %.2fms vs %.2fms",
				eng, static.TotalMs, base.TotalMs)
		}
		if eng == "event" && onl.TotalMs >= static.TotalMs {
			t.Errorf("%s: online did not beat static-once: %.2fms vs %.2fms",
				eng, onl.TotalMs, static.TotalMs)
		}
		// One remap per phase boundary plus the initial mapping; never
		// one per window (the drift gate must hold within a phase).
		if onl.Remaps != cfg.Phases {
			t.Errorf("%s: online remapped %d times over %d phases",
				eng, onl.Remaps, cfg.Phases)
		}
	}
}

// TestOnlineRemapCountsAgreeAcrossEngines checks that the two engines see
// the same experiment: the remap counts must agree engine to engine (the
// decision pipeline is deterministic given the gathered matrices).
func TestOnlineRemapCountsAgreeAcrossEngines(t *testing.T) {
	cfg := DefaultOnline
	cfg.Phases = 2
	cfg.Engines = []string{"goroutine", "event"}
	rows, err := OnlineReorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	remaps := map[string]int{}
	for _, r := range rows {
		if r.Mode == "online" {
			remaps[r.Engine] = r.Remaps
		}
	}
	if remaps["goroutine"] != remaps["event"] {
		t.Fatalf("engines disagree on remaps: %v", remaps)
	}
}
