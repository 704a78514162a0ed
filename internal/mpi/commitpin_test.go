package mpi

import (
	"fmt"
	"testing"

	"mpimon/internal/commitagg"
	"mpimon/internal/telemetry"
)

// The batched-commit pin: with commit-on-threshold aggregation in front
// of the telemetry cells, every observation point — the monitored
// matrices (which the policy does not front and must not disturb), the
// virtual clocks, the telemetry counter totals — must be bit-identical
// to the eager per-message path, at every world size and under both
// engines. Batching may only change when data moves, never what a
// barrier reads.

// counterFamilies are the registry families fed through commitagg cells.
var counterFamilies = []string{
	"mpimon_messages_total",
	"mpimon_bytes_total",
	"mpimon_comm_messages_total",
	"mpimon_comm_bytes_total",
}

// telemetryTotals reads the commit-batched counter families; CounterTotal
// snapshots the registry, which runs the commit barrier first.
func telemetryTotals(tel *telemetry.Telemetry) map[string]uint64 {
	out := make(map[string]uint64, len(counterFamilies))
	for _, f := range counterFamilies {
		out[f] = tel.Registry().CounterTotal(f)
	}
	return out
}

// TestCommitPolicyEquivalence runs the engine-equivalence workload at
// np ∈ {4, 256} under both engines, once with the eager policy and once
// with batched policies, and requires bit-identical fingerprints and
// telemetry totals across every combination.
func TestCommitPolicyEquivalence(t *testing.T) {
	pols := map[string]commitagg.Policy{
		"eager":   commitagg.Eager,
		"default": commitagg.Default(),
		"tight":   {Threshold: 3, IntervalNs: 777},
	}
	for _, np := range []int{4, 256} {
		np := np
		t.Run(fmt.Sprintf("np%d", np), func(t *testing.T) {
			if testing.Short() && np > 4 {
				t.Skip("large pin skipped in -short")
			}
			type outcome struct {
				fp     worldFP
				totals map[string]uint64
			}
			outcomes := map[string]outcome{}
			for _, eng := range []Engine{EngineGoroutine, EngineEvent} {
				for name, pol := range pols {
					tel := telemetry.New()
					w := runEngine(t, np, eng, equivWorkload,
						WithTelemetry(tel), WithCommitPolicy(pol))
					key := eng.Name() + "/" + name
					outcomes[key] = outcome{fp: fingerprint(w), totals: telemetryTotals(tel)}
				}
			}
			base := outcomes[EngineGoroutine.Name()+"/eager"]
			if base.totals["mpimon_messages_total"] == 0 {
				t.Fatal("eager baseline recorded no messages")
			}
			for key, o := range outcomes {
				requireSameFP(t, base.fp, o.fp, key)
				for _, f := range counterFamilies {
					if o.totals[f] != base.totals[f] {
						t.Fatalf("%s: %s = %d, eager baseline %d", key, f, o.totals[f], base.totals[f])
					}
				}
			}
		})
	}
}

// TestCommitPolicyDefaultAmortizes pins that the default policy actually
// batches on this workload: the telemetry shards commit far fewer folds
// than updates (the whole point of the layer).
func TestCommitPolicyDefaultAmortizes(t *testing.T) {
	tel := telemetry.New()
	w := runEngine(t, 16, EngineGoroutine, equivWorkload, WithTelemetry(tel))
	var st commitagg.Stats
	for r := 0; r < w.Size(); r++ {
		st = st.Add(w.Proc(r).tm.agg.Stats())
	}
	if st.Updates == 0 {
		t.Fatal("no telemetry updates recorded")
	}
	if ratio := st.UpdatesPerFold(); ratio < 2 {
		t.Fatalf("updates/fold = %.2f, want >= 2 on the default policy", ratio)
	}
}
