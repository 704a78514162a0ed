package exp

import (
	"bytes"
	"strings"
	"testing"

	"mpimon/internal/coll"
)

// Tier-1 smoke of the guideline verification: every invariant must hold
// exactly on a reduced grid, on the cluster model and on the fat-node
// (GPU-style) fabric.
func TestGuidelinesHoldSmall(t *testing.T) {
	for _, topo := range []string{"plafrim", "fatnode"} {
		cfg := GuidelinesConfig{Topo: topo, NPs: []int{8, 12}, Blocks: []int{64, 4096}, Reps: 2}
		rows, err := Guidelines(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// 5 guidelines × 2 np × 2 blocks.
		if len(rows) != 20 {
			t.Fatalf("%s: got %d rows, want 20", topo, len(rows))
		}
		for _, r := range Violations(rows) {
			t.Errorf("%s: %s np=%d block=%d violated: tuned %v > mockup %v (alg %s)",
				topo, r.Guideline, r.NP, r.Block, r.LHS, r.RHS, r.Alg)
		}
		var buf bytes.Buffer
		PrintGuidelines(&buf, rows)
		if !strings.Contains(buf.String(), "bcast<=scatter+allgather") {
			t.Fatal("printer lost the guideline names")
		}
	}
}

// The autotuner sweep invariant on a reduced grid: the pick is never
// slower than the default (AutotuneSweep errors otherwise), and the
// large-message point actually exercises a non-default algorithm.
func TestAutotuneSweepSmall(t *testing.T) {
	cfg := AutotuneConfig{
		Topo:  "plafrim",
		Ops:   []coll.Op{coll.OpAllreduce},
		NPs:   []int{24},
		Sizes: []int{4096, 262144},
		Reps:  2,
	}
	rows, err := AutotuneSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Picked > r.Default {
			t.Errorf("%s np=%d size=%d: pick %s slower than default", r.Op, r.NP, r.Size, r.Alg)
		}
	}
	if large := rows[1]; large.Size != 262144 || large.Alg == coll.Default {
		t.Errorf("pick at the large point is %s at %d bytes; expected ring/rab to win at 262144", large.Alg, large.Size)
	}
	var buf bytes.Buffer
	PrintAutotune(&buf, rows)
	if !strings.Contains(buf.String(), "allreduce\t24") {
		t.Fatal("autotune printer produced no rows")
	}
}

func TestMachineForRejectsUnknown(t *testing.T) {
	if _, err := MachineFor("hypercube"); err == nil {
		t.Fatal("unknown topology accepted")
	}
	for _, topo := range []string{"", "plafrim", "fatnode"} {
		mk, err := MachineFor(topo)
		if err != nil {
			t.Fatal(err)
		}
		m := mk(16)
		if err := m.Validate(); err != nil {
			t.Fatalf("%q machine invalid: %v", topo, err)
		}
		if m.Topo.Leaves() < 16 {
			t.Fatalf("%q machine too small for np=16: %d cores", topo, m.Topo.Leaves())
		}
	}
}
