package exp

import (
	"fmt"
	"io"

	"mpimon/internal/mpi"
	"mpimon/internal/pml"
	"mpimon/internal/stats"
)

// OverheadConfig parameterizes the Fig. 4 experiment: a reduce over
// COMM_WORLD is timed (real wall-clock time — the one measurement in this
// reproduction that is not virtual, because it measures the monitoring
// implementation itself) with monitoring enabled and disabled.
type OverheadConfig struct {
	NPs   []int // paper: 48, 96, 192
	Sizes []int // bytes; paper plots 1 B .. 10 KB
	Reps  int   // paper: 180
}

// DefaultOverhead is the paper's setting.
var DefaultOverhead = OverheadConfig{
	NPs:   []int{48, 96, 192},
	Sizes: []int{1, 4, 16, 64, 256, 1024, 4096, 10000},
	Reps:  180,
}

// OverheadRow is one point of Fig. 4: the Welch 95% interval of the
// wall-time difference (monitored minus unmonitored), in microseconds.
type OverheadRow struct {
	NP    int
	Size  int
	Welch stats.WelchResult // microseconds
}

// Overhead runs the experiment: for each world size and message size, Reps
// timed reduce iterations with monitoring at level Distinct and Reps with
// monitoring Disabled, compared with Welch's unpaired t-interval exactly as
// the paper's error bars.
func Overhead(cfg OverheadConfig) ([]OverheadRow, error) {
	if err := welchReps(cfg.Reps); err != nil {
		return nil, err
	}
	if err := checkNPs("overhead", cfg.NPs...); err != nil {
		return nil, err
	}
	if err := checkSizes("overhead sizes", cfg.Sizes); err != nil {
		return nil, err
	}
	var rows []OverheadRow
	for _, np := range cfg.NPs {
		for _, size := range cfg.Sizes {
			on, err := timedReduces(np, size, cfg.Reps, pml.Distinct)
			if err != nil {
				return nil, err
			}
			off, err := timedReduces(np, size, cfg.Reps, pml.Disabled)
			if err != nil {
				return nil, err
			}
			rows = append(rows, OverheadRow{NP: np, Size: size, Welch: stats.Welch(on, off)})
		}
	}
	return rows, nil
}

// welchReps rejects a repetition count too small for stats.Welch, which
// needs two samples on each side.
func welchReps(reps int) error {
	if reps < 2 {
		return fmt.Errorf("exp: overhead needs reps >= 2 for Welch's interval, got %d", reps)
	}
	return nil
}

// timedReduces measures the wall time of rep successive reduces on a world
// of np ranks, returning rank 0's per-iteration samples in microseconds.
func timedReduces(np, size, reps int, level pml.Level) ([]float64, error) {
	return timedReducesOpts(np, size, reps, mpi.WithMonitoringLevel(level))
}

// PrintOverhead writes the Fig. 4 rows: np, size, mean difference and 95%
// interval in microseconds, and whether the difference is significant.
func PrintOverhead(w io.Writer, rows []OverheadRow) {
	Fprintf(w, "# np\tsize_b\tdiff_us\tci_lo\tci_hi\tsignificant\n")
	for _, r := range rows {
		Fprintf(w, "%d\t%d\t%+.3f\t%+.3f\t%+.3f\t%v\n",
			r.NP, r.Size, r.Welch.Diff, r.Welch.Lo, r.Welch.Hi, r.Welch.Significant)
	}
}
