package exp

import (
	"bytes"
	"strings"
	"testing"
)

// TestFaultsRecovers is the acceptance scenario: a node dies mid-iteration
// and the run must complete through Shrink and the reorder identity
// fallback, with the counters populated.
func TestFaultsRecovers(t *testing.T) {
	cfg := DefaultFaults
	cfg.Iters = 10
	res, err := Faults(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedRanks) != cfg.Clique {
		t.Fatalf("failed ranks %v, want the %d ranks of the dead node", res.FailedRanks, cfg.Clique)
	}
	if res.Survivors != cfg.NP-cfg.Clique {
		t.Fatalf("survivors = %d, want %d", res.Survivors, cfg.NP-cfg.Clique)
	}
	if res.Agreed != 1 {
		t.Fatalf("agree flags = %#x, want 1", res.Agreed)
	}
	if !res.IdentityK {
		t.Fatal("starved reorder did not degrade to the identity permutation")
	}
	if res.ProcFailures != uint64(cfg.Clique) || res.Shrinks != 1 {
		t.Fatalf("counters: failures %d shrinks %d", res.ProcFailures, res.Shrinks)
	}
	if res.Revocations == 0 || res.Injections == 0 || res.MapFallbacks != 1 {
		t.Fatalf("counters: revocations %d injections %d fallbacks %d",
			res.Revocations, res.Injections, res.MapFallbacks)
	}
	var buf bytes.Buffer
	PrintFaults(&buf, cfg, res)
	if !strings.Contains(buf.String(), "mpimon_fault_injections_total") {
		t.Fatal("summary does not print the telemetry counters")
	}
}
