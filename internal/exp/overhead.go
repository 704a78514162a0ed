package exp

import (
	"io"
	"time"

	"mpimon/internal/mpi"
	"mpimon/internal/pml"
)

// OverheadConfig parameterizes the Fig. 4 experiment: a reduce over
// COMM_WORLD is timed in virtual time with monitoring enabled and disabled.
// The monitor charges no virtual time, so the difference is exactly zero;
// its host cost per message is what `go run ./bench` reports as
// pml.record_ns.
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

// OverheadRow is one point of Fig. 4: rank 0's median virtual reduce time
// without and with monitoring.
type OverheadRow struct {
	NP          int
	Size        int
	Unmonitored time.Duration
	Monitored   time.Duration
}

// Overhead runs the experiment: for each world size and message size, Reps
// barrier-separated reduces with monitoring Disabled and Reps at level
// Distinct, each world reporting the median of rank 0's durations.
func Overhead(cfg OverheadConfig) ([]OverheadRow, error) {
	if err := checkReps("overhead", cfg.Reps); err != nil {
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
			off, err := reduceTime(np, size, cfg.Reps, pml.Disabled)
			if err != nil {
				return nil, err
			}
			on, err := reduceTime(np, size, cfg.Reps, pml.Distinct)
			if err != nil {
				return nil, err
			}
			rows = append(rows, OverheadRow{NP: np, Size: size, Unmonitored: off, Monitored: on})
		}
	}
	return rows, nil
}

// reduceTime returns the median virtual duration, at rank 0 (the root), of
// reps barrier-separated reduces on a fresh world of np ranks monitored at
// the given level.
func reduceTime(np, size, reps int, level pml.Level) (time.Duration, error) {
	w, err := PlaFRIMWorld(np, nil, mpi.WithMonitoringLevel(level))
	if err != nil {
		return 0, err
	}
	var med time.Duration
	err = w.Run(func(c *mpi.Comm) error {
		send := make([]byte, size)
		var recv []byte
		if c.Rank() == 0 {
			recv = make([]byte, size)
		}
		durations := make([]time.Duration, 0, reps)
		for i := 0; i < reps; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := c.Proc().Clock()
			if err := c.Reduce(send, recv, mpi.Byte, mpi.OpMax, 0); err != nil {
				return err
			}
			durations = append(durations, c.Proc().Clock()-t0)
		}
		if c.Rank() == 0 {
			med = median(durations)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return med, nil
}

// PrintOverhead writes the Fig. 4 rows: np, size, the unmonitored and
// monitored medians and their difference, in microseconds.
func PrintOverhead(w io.Writer, rows []OverheadRow) {
	Fprintf(w, "# np\tsize_b\tunmonitored_us\tmonitored_us\tdiff_us\n")
	for _, r := range rows {
		Fprintf(w, "%d\t%d\t%.3f\t%.3f\t%+.3f\n", r.NP, r.Size,
			us(r.Unmonitored), us(r.Monitored), us(r.Monitored-r.Unmonitored))
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
