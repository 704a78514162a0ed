package coll

import (
	"strings"
	"testing"
	"time"

	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
)

func smallConfig() Config {
	return Config{
		Machine: func(np int) *netsim.Machine { return netsim.PlaFRIM((np + 23) / 24) },
		NPs:     []int{4, 6},
		Sizes:   []int{256, 4096},
		Reps:    3,
	}
}

// The autotuner's core guarantee: the pick is the argmin over a table
// that includes the default, so it can never be slower than the default
// at any measured point.
func TestTunePickNeverSlowerThanDefault(t *testing.T) {
	for _, op := range []Op{OpAllreduce, OpAlltoallv} {
		table, err := Tune(smallConfig(), op)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range table.Points() {
			def, ok := table.Cost(p, Default)
			if !ok {
				t.Fatalf("%s np=%d size=%d: default not measured", p.Op, p.NP, p.Size)
			}
			pick := table.Pick(p)
			got, ok := table.Cost(p, pick)
			if !ok {
				t.Fatalf("%s np=%d size=%d: pick %q not measured", p.Op, p.NP, p.Size, pick)
			}
			if got > def {
				t.Errorf("%s np=%d size=%d: picked %s at %v is slower than default %v", p.Op, p.NP, p.Size, pick, got, def)
			}
		}
	}
}

// Deterministic netsim: re-measuring the same point in a fresh world must
// reproduce the cost exactly.
func TestMeasureDeterministic(t *testing.T) {
	ring := func(c *mpi.Comm) error { return Run(c, OpAllreduce, Ring, 4096) }
	a, err := Measure(netsim.PlaFRIM(1), 6, 3, nil, ring)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Measure(netsim.PlaFRIM(1), 6, 3, nil, ring)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same measurement differs across worlds: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("measured cost %v, want positive virtual time", a)
	}
}

// Pick answers only at a measured point: the cheapest algorithm there, with
// A repetition count below one leaves no sample for the median: Measure
// and Tune fail with an error naming reps before any world runs, instead
// of quietly measuring some other count.
func TestMeasureRejectsBadReps(t *testing.T) {
	ran := false
	kernel := func(c *mpi.Comm) error { ran = true; return nil }
	for _, reps := range []int{0, -1} {
		if _, err := Measure(netsim.PlaFRIM(1), 2, reps, nil, kernel); err == nil || !strings.Contains(err.Error(), "reps") {
			t.Errorf("Measure reps=%d: error %v, want one naming reps", reps, err)
		}
		cfg := smallConfig()
		cfg.Reps = reps
		if _, err := Tune(cfg, OpAllreduce); err == nil || !strings.Contains(err.Error(), "reps") {
			t.Errorf("Tune reps=%d: error %v, want one naming reps", reps, err)
		}
	}
	if ran {
		t.Error("a kernel ran under a bad repetition count")
	}
}

// ties and unmeasured points going to the default.
func TestPickFallbacks(t *testing.T) {
	var empty Table
	if got := empty.Pick(Point{OpAllreduce, 48, 1024}); got != Default {
		t.Fatalf("empty table picked %q, want default", got)
	}
	var tb Table
	small, large := Point{OpAllreduce, 8, 1024}, Point{OpAllreduce, 8, 1 << 20}
	tb.set(small, Default, 100*time.Microsecond)
	tb.set(small, Ring, 50*time.Microsecond)
	tb.set(small, Rab, 50*time.Microsecond)
	tb.set(large, Default, 2*time.Millisecond)
	tb.set(large, Rab, 3*time.Millisecond)
	// The cheapest wins; of two equal costs, the earlier in registry order.
	if got := tb.Pick(small); got != Ring {
		t.Fatalf("pick at 1KB = %q, want ring", got)
	}
	// At the large point the default is cheapest.
	if got := tb.Pick(large); got != Default {
		t.Fatalf("pick at 1MB = %q, want default", got)
	}
	// An unmeasured point or operation falls back to default.
	if got := tb.Pick(Point{OpAllreduce, 8, 2048}); got != Default {
		t.Fatalf("unmeasured size picked %q, want default", got)
	}
	if got := tb.Pick(Point{OpBcast, 8, 1024}); got != Default {
		t.Fatalf("unmeasured op picked %q, want default", got)
	}
}

func TestDispatchRejectsUnknownAlgorithm(t *testing.T) {
	w, err := mpi.NewWorld(netsim.PlaFRIM(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		if err := Allreduce(c, "nope", nil, nil, mpi.Byte, mpi.OpSum); err == nil {
			t.Error("unknown allreduce algorithm accepted")
		}
		if err := Bcast(c, Ring, nil, 0); err == nil {
			t.Error("ring is not a bcast algorithm but was accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmsRegistry(t *testing.T) {
	for _, op := range Ops() {
		algs := Algorithms(op)
		if len(algs) < 2 {
			t.Fatalf("%s has %d algorithms, want at least default + one variant", op, len(algs))
		}
		if algs[0] != Default {
			t.Fatalf("%s: first algorithm is %q, want default", op, algs[0])
		}
	}
}
