package cg

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mpimon/internal/golden"
	"mpimon/internal/mpi"
)

// TestRealStatePinned pins everything observable about a Real class S run
// at np 1, 4 and 16 — every rank's clock and MPI time, the communication
// matrices and the NIC counters (testdata/golden/TestRealStatePinned.txt) —
// so a change to the kernel's structure cannot move what Real mode charges
// or sends. It runs on the event engine, whose clocks do not follow the
// host scheduler.
func TestRealStatePinned(t *testing.T) {
	var b strings.Builder
	for _, np := range []int{1, 4, 16} {
		w, err := mpi.NewWorld(cgMachine((np+7)/8), np, mpi.WithEngine(mpi.EngineEvent))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RunWithTimeout(2*time.Minute, func(c *mpi.Comm) error {
			res, err := Run(c, Config{Class: ClassS, Mode: Real})
			if err == nil && !res.Verified {
				err = fmt.Errorf("rank %d: zeta %.13f not verified", c.Rank(), res.Zeta)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "case np=%d\n%s", np, w.State())
	}
	golden.Check(t, b.String())
}

// TestModesDifferOnlyInMatVecFlops: Real and Skeleton run one kernel, so at
// np 1, where no rank waits for a message, their clocks differ by exactly
// the matvec charge — the real local nonzeros against the class's NPB
// estimate — once per matvec: cgitmax+1 per conj_grad, one conj_grad for
// the init iteration and one per outer iteration.
func TestModesDifferOnlyInMatVecFlops(t *testing.T) {
	mach := cgMachine(1)
	clock := func(mode Mode) time.Duration {
		w, err := mpi.NewWorld(mach, 1, mpi.WithEngine(mpi.EngineEvent))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.RunWithTimeout(2*time.Minute, func(c *mpi.Comm) error {
			_, err := Run(c, Config{Class: ClassS, Mode: mode})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxClock()
	}
	tran := tranSeed
	_ = randlc(&tran, amult)
	nnz := Makea(ClassS, 0, ClassS.NA, 0, ClassS.NA, &tran).NNZ()
	matvecs := time.Duration((ClassS.Niter + 1) * (25 + 1))
	want := matvecs * (mach.FlopTime(2*float64(nnz)) - mach.FlopTime(2*float64(ClassS.EstimatedNonzeros())))
	if got := clock(Real) - clock(Skeleton); got != want {
		t.Fatalf("Real clock - Skeleton clock = %v, want %v (%d matvecs, nnz %d vs estimate %d)",
			got, want, int(matvecs), nnz, ClassS.EstimatedNonzeros())
	}
}
