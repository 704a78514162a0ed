package cg

import (
	"testing"
	"time"

	"mpimon/internal/mpi"
)

// TestClassWVerifies checks the second published reference value on a
// rectangular grid (8 = 2x4). Slower than class S; skipped with -short.
func TestClassWVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("class W generation is slow; run without -short")
	}
	res := runCG(t, 8, Config{Class: ClassW, Mode: Real})
	if !res.Verified {
		t.Fatalf("class W zeta = %.13f, want %.13f", res.Zeta, ClassW.ZetaVerify)
	}
}

// TestSkeletonScalesWithClass checks that a bigger class produces more
// simulated communication time, with everything else fixed (sanity for the
// Fig. 7 sweep).
func TestSkeletonScalesWithClass(t *testing.T) {
	timeFor := func(cls Class) time.Duration {
		w, err := mpi.NewWorld(cgMachine(2), 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RunWithTimeout(2*time.Minute, func(c *mpi.Comm) error {
			_, err := Run(c, Config{Class: cls, Mode: Skeleton, Niter: 2})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxClock()
	}
	tB, tC := timeFor(ClassB), timeFor(ClassC)
	if tC <= tB {
		t.Fatalf("class C (%v) should take longer than class B (%v)", tC, tB)
	}
}

// TestSkipInitEquivalence: init + n iterations in one run must cost the
// same virtual time as a SkipInit 1-iteration run followed by a SkipInit
// n-iteration run (the accounting identity behind the Fig. 7 comparison).
// It runs on the event engine: under the goroutine engine the NIC
// reservation order, and with it both clocks, follows the host scheduler.
func TestSkipInitEquivalence(t *testing.T) {
	const np = 16
	oneShot := func() time.Duration {
		w, _ := mpi.NewWorld(cgMachine(2), np, mpi.WithEngine(mpi.EngineEvent))
		if err := w.RunWithTimeout(2*time.Minute, func(c *mpi.Comm) error {
			_, err := Run(c, Config{Class: ClassB, Mode: Skeleton, Niter: 3})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxClock()
	}
	splitRun := func() time.Duration {
		w, _ := mpi.NewWorld(cgMachine(2), np, mpi.WithEngine(mpi.EngineEvent))
		if err := w.RunWithTimeout(2*time.Minute, func(c *mpi.Comm) error {
			if _, err := Run(c, Config{Class: ClassB, Mode: Skeleton, Niter: 1, SkipInit: true}); err != nil {
				return err
			}
			_, err := Run(c, Config{Class: ClassB, Mode: Skeleton, Niter: 3, SkipInit: true})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxClock()
	}
	a, b := oneShot(), splitRun()
	// The split run has one extra powerStep reduction; allow 2% slack.
	diff := float64(a-b) / float64(a)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.02 {
		t.Fatalf("init accounting differs: one-shot %v vs split %v", a, b)
	}
}

// TestGridTooManyColumns rejects worlds larger than the matrix order
// allows.
func TestGridTooManyColumns(t *testing.T) {
	if _, err := NewGrid(256, 10); err == nil {
		t.Fatal("16 column blocks for order 10 should fail")
	}
}
