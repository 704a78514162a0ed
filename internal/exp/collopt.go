package exp

import (
	"fmt"
	"io"
	"time"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/reorder"
	"mpimon/internal/treematch"
)

// CollOptConfig parameterizes Fig. 5: tree-based collectives with and
// without monitoring-driven rank reordering, starting from the paper's
// default round-robin mapping.
type CollOptConfig struct {
	Op       string // "reduce" (binary tree) or "bcast" (binomial tree)
	NPs      []int  // paper: 48, 96, 192
	BufSizes []int  // buffer sizes in "1000 int" units, paper: 1e3..2e5
	Reps     int    // timed repetitions; the paper reports medians
}

// DefaultCollOpt mirrors the paper's sweep (buffer sizes in thousands of
// 4-byte integers).
var DefaultCollOpt = CollOptConfig{
	Op:       "reduce",
	NPs:      []int{48, 96, 192},
	BufSizes: []int{1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000},
	Reps:     3,
}

// CollOptRow is one point of Fig. 5.
type CollOptRow struct {
	Op        string
	NP        int
	BufK      int // buffer size in 1000-int units
	NoMonMs   float64
	ReorderMs float64
}

// CollectiveOpt runs the Fig. 5 experiment. The baseline maps ranks
// round-robin "as it would be done without any specification given by the
// user" and times the collective. The optimized variant monitors one
// collective call (observing its point-to-point decomposition — the
// feature PMPI-level tools lack), reorders ranks with TreeMatch, and times
// the collective on the reordered communicator.
func CollectiveOpt(cfg CollOptConfig) ([]CollOptRow, error) {
	if err := checkReps("collopt", cfg.Reps); err != nil {
		return nil, err
	}
	if err := checkNPs("collopt", cfg.NPs...); err != nil {
		return nil, err
	}
	if err := checkSizes("collopt sizes", cfg.BufSizes); err != nil {
		return nil, err
	}
	var rows []CollOptRow
	for _, np := range cfg.NPs {
		for _, bufK := range cfg.BufSizes {
			bytes := bufK * 1000 * 4
			base, err := collTime(cfg.Op, np, bytes, cfg.Reps, false)
			if err != nil {
				return nil, err
			}
			opt, err := collTime(cfg.Op, np, bytes, cfg.Reps, true)
			if err != nil {
				return nil, err
			}
			rows = append(rows, CollOptRow{Op: cfg.Op, NP: np, BufK: bufK,
				NoMonMs: Ms(base), ReorderMs: Ms(opt)})
		}
	}
	return rows, nil
}

// runCollective executes one skeleton collective of the given byte size.
func runCollective(op string, c *mpi.Comm, bytes int) error {
	switch op {
	case "reduce":
		return c.ReduceN(bytes, 0)
	case "bcast":
		return c.BcastN(bytes, 0)
	default:
		return fmt.Errorf("exp: unknown collective %q", op)
	}
}

// collTime measures the median virtual duration of the collective over
// reps runs. With reordering, one monitored collective feeds TreeMatch
// before the measurement; the collective then runs on the optimized
// communicator.
func collTime(op string, np, bytes, reps int, withReorder bool) (time.Duration, error) {
	mach := netsim.PlaFRIM(Nodes(np))
	rr, err := treematch.PlacementRoundRobin(np, mach.Topo)
	if err != nil {
		return 0, err
	}
	w, err := newWorld(mach, np, mpi.WithPlacement(rr))
	if err != nil {
		return 0, err
	}
	var med time.Duration
	err = w.Run(func(c *mpi.Comm) error {
		work := c
		if withReorder {
			env, err := monitoring.Init(c.Proc())
			if err != nil {
				return err
			}
			defer env.Finalize()
			opt, _, err := reorder.MonitorAndReorder(env, c, func(cc *mpi.Comm) error {
				return runCollective(op, cc, bytes)
			}, reorder.WithFlags(monitoring.CollOnly))
			if err != nil {
				return err
			}
			work = opt
		}
		durations := make([]time.Duration, 0, reps)
		for i := 0; i < reps; i++ {
			if err := work.Barrier(); err != nil {
				return err
			}
			t0 := c.Proc().Clock()
			if err := runCollective(op, work, bytes); err != nil {
				return err
			}
			// The paper reports the reduce time at the root and the
			// total bcast time; the closing barrier turns the local
			// clock delta into the collective's completion time.
			if err := work.Barrier(); err != nil {
				return err
			}
			durations = append(durations, c.Proc().Clock()-t0)
		}
		if work.Rank() == 0 {
			med = median(durations)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return med, nil
}

func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// PrintCollOpt writes Fig. 5 rows: op, np, buffer (1000 ints), baseline and
// reordered medians in ms, and the speedup.
func PrintCollOpt(w io.Writer, rows []CollOptRow) {
	Fprintf(w, "# op\tnp\tbuf_kint\tno_monitoring_ms\treordered_ms\tspeedup\n")
	for _, r := range rows {
		speedup := r.NoMonMs / r.ReorderMs
		Fprintf(w, "%s\t%d\t%d\t%.2f\t%.2f\t%.2fx\n", r.Op, r.NP, r.BufK, r.NoMonMs, r.ReorderMs, speedup)
	}
}
