package exp

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"mpimon/internal/commitagg"
	"mpimon/internal/mpi"
	"mpimon/internal/pml"
	"mpimon/internal/telemetry"
)

// CommitSweepConfig parameterizes the commit-policy sweep: a stencil
// world runs once per (threshold × interval) grid cell with that commit
// policy on the telemetry cells, and every cell's observable state —
// the pml monitors' matrices included, which the policy must never
// change — is pinned bit-identical to the eager baseline while its
// amortization (updates per registry fold) is recorded. The grid is what
// picked commitagg.DefaultThreshold.
type CommitSweepConfig struct {
	// NP is the world size; must be a perfect square.
	NP int
	// Iters is the halo-exchange iteration count.
	Iters int
	// MsgBytes is the halo message size.
	MsgBytes int
	// Thresholds are the commit thresholds to sweep (1 = eager).
	Thresholds []int
	// IntervalsNs are the commit intervals (virtual ns) to sweep;
	// negative disables the interval trigger.
	IntervalsNs []int64
}

// DefaultCommitSweep is the recorded grid: thresholds from eager to 1024
// against no interval, a tight 100 µs and the default 1 ms.
var DefaultCommitSweep = CommitSweepConfig{
	NP:          64,
	Iters:       200,
	MsgBytes:    1024,
	Thresholds:  []int{1, 16, 64, 256, 1024},
	IntervalsNs: []int64{-1, 100_000, 1_000_000},
}

// CommitSweepRow is one grid cell's outcome.
type CommitSweepRow struct {
	Threshold  int
	IntervalNs int64
	// Tel is the batched-fold counters of the telemetry cells (updates
	// accepted vs registry folds paid).
	Tel commitagg.Stats
	// Exact reports whether every monitored matrix and telemetry counter
	// total matched the eager baseline bit for bit.
	Exact       bool
	WallSeconds float64
}

// commitFingerprint is the observable state a sweep cell must reproduce:
// the summed per-class matrices and the batched counter-family totals.
type commitFingerprint struct {
	counts [pml.NumClasses][]uint64
	bytes  [pml.NumClasses][]uint64
	totals map[string]uint64
}

// commitSweepFamilies are the telemetry families fed through commit cells.
var commitSweepFamilies = []string{
	"mpimon_messages_total", "mpimon_bytes_total",
	"mpimon_comm_messages_total", "mpimon_comm_bytes_total",
}

// runCommitCell runs the stencil under one policy and fingerprints the
// world.
func runCommitCell(gx int, cfg CommitSweepConfig, pol commitagg.Policy) (*mpi.World, commitFingerprint, error) {
	np := gx * gx
	tel := telemetry.New()
	w, err := PlaFRIMWorld(np, nil, mpi.WithTelemetry(tel), mpi.WithCommitPolicy(pol))
	if err != nil {
		return nil, commitFingerprint{}, err
	}
	err = w.Run(func(c *mpi.Comm) error {
		return StencilSkeleton(c, gx, cfg.Iters, cfg.MsgBytes)
	})
	if err != nil {
		return nil, commitFingerprint{}, err
	}
	fp := commitFingerprint{totals: make(map[string]uint64, len(commitSweepFamilies))}
	for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
		fp.counts[cl] = make([]uint64, np)
		fp.bytes[cl] = make([]uint64, np)
		row := make([]uint64, np)
		for r := 0; r < np; r++ {
			w.Proc(r).Monitor().Counts(cl, row)
			for j, v := range row {
				fp.counts[cl][j] += v
			}
			w.Proc(r).Monitor().Bytes(cl, row)
			for j, v := range row {
				fp.bytes[cl][j] += v
			}
		}
	}
	for _, f := range commitSweepFamilies {
		fp.totals[f] = tel.Registry().CounterTotal(f)
	}
	return w, fp, nil
}

// CommitSweep runs the grid and pins every cell against the eager
// baseline.
func CommitSweep(cfg CommitSweepConfig) ([]CommitSweepRow, error) {
	gx := intSqrt(cfg.NP)
	if gx*gx != cfg.NP {
		return nil, fmt.Errorf("exp: commit sweep np %d is not a perfect square", cfg.NP)
	}
	if len(cfg.Thresholds) == 0 || len(cfg.IntervalsNs) == 0 {
		return nil, fmt.Errorf("exp: commit sweep needs a non-empty grid")
	}
	_, base, err := runCommitCell(gx, cfg, commitagg.Eager)
	if err != nil {
		return nil, fmt.Errorf("exp: commit sweep eager baseline: %w", err)
	}
	var rows []CommitSweepRow
	for _, th := range cfg.Thresholds {
		for _, iv := range cfg.IntervalsNs {
			t0 := time.Now()
			w, fp, err := runCommitCell(gx, cfg, commitagg.Policy{Threshold: th, IntervalNs: iv})
			if err != nil {
				return nil, fmt.Errorf("exp: commit sweep threshold %d interval %d: %w", th, iv, err)
			}
			rows = append(rows, CommitSweepRow{
				Threshold:   th,
				IntervalNs:  iv,
				Tel:         w.TelemetryAggStats(),
				Exact:       reflect.DeepEqual(base, fp),
				WallSeconds: time.Since(t0).Seconds(),
			})
		}
	}
	return rows, nil
}

// PrintCommitSweep writes the grid as TSV (results/commitagg_sweep.tsv).
func PrintCommitSweep(w io.Writer, cfg CommitSweepConfig, rows []CommitSweepRow) {
	Fprintf(w, "# commit-policy sweep: %d-rank stencil, %d iters x %d B halo\n", cfg.NP, cfg.Iters, cfg.MsgBytes)
	Fprintf(w, "# tel_* is the telemetry counter cells; upf = updates per registry fold (amortization; eager = 1),\n")
	Fprintf(w, "# exact pins bit-identical pml matrices and counter totals vs eager\n")
	Fprintf(w, "threshold\tinterval_ns\ttel_updates\ttel_folds\ttel_upf\texact\twall_ms\n")
	for _, r := range rows {
		Fprintf(w, "%d\t%d\t%d\t%d\t%.2f\t%v\t%.1f\n",
			r.Threshold, r.IntervalNs,
			r.Tel.Updates, r.Tel.Folds, r.Tel.UpdatesPerFold(),
			r.Exact, r.WallSeconds*1e3)
	}
}
