package exp

import (
	"fmt"
	"io"
	"time"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/online"
	"mpimon/internal/reorder"
	"mpimon/internal/treematch"
)

// OnlineConfig parameterizes the online re-reordering experiment: a
// multi-phase grouped-allgather workload whose grouping flips between
// consecutive-rank and strided every WindowsPerPhase windows, run three
// ways — never reordered, reordered once from the first monitored window
// (the paper's Fig. 6 protocol), and under the online controller that
// re-reorders whenever the windowed matrix drifts.
type OnlineConfig struct {
	NP              int // world size
	Groups          int // allgather groups per window
	ChunkBytes      int // per-rank allgather contribution
	Phases          int // how many times the pattern alternates
	WindowsPerPhase int // windows between pattern flips
}

// DefaultOnline uses the paper's smallest world (two PlaFRIM nodes) with
// four pattern flips, long enough for the controller's gain model to
// amortize every remap; the default run regenerates
// results/online_reorder.tsv byte for byte.
var DefaultOnline = OnlineConfig{
	NP:              48,
	Groups:          4,
	ChunkBytes:      128 << 10,
	Phases:          4,
	WindowsPerPhase: 6,
}

// OnlineRow is one strategy's measurement.
type OnlineRow struct {
	Mode    string // "baseline", "static", "online"
	TotalMs float64
	Remaps  int
}

// Modes in reporting order.
var onlineModes = []string{"baseline", "static", "online"}

// OnlineReorder runs the experiment and returns one row per strategy. All
// three strategies execute exactly Phases*WindowsPerPhase windows of
// traffic; the static strategy spends its first window inside
// MonitorAndReorder, the online one monitors every window through the
// controller.
func OnlineReorder(cfg OnlineConfig) ([]OnlineRow, error) {
	for _, c := range []struct {
		name string
		v    int
	}{{"np", cfg.NP}, {"groups", cfg.Groups}, {"phases", cfg.Phases}, {"windows", cfg.WindowsPerPhase}} {
		if err := checkCount("online", c.name, c.v); err != nil {
			return nil, err
		}
	}
	if err := checkSizes("online chunk", []int{cfg.ChunkBytes}); err != nil {
		return nil, err
	}
	if cfg.NP%cfg.Groups != 0 {
		return nil, fmt.Errorf("exp: %d ranks do not divide into %d groups", cfg.NP, cfg.Groups)
	}
	var rows []OnlineRow
	for _, mode := range onlineModes {
		total, remaps, err := onlineRun(cfg, mode)
		if err != nil {
			return nil, fmt.Errorf("exp: online %s: %w", mode, err)
		}
		rows = append(rows, OnlineRow{Mode: mode, TotalMs: Ms(total), Remaps: remaps})
	}
	return rows, nil
}

// onlineGroupWindow is one window of the workload: an allgather inside
// each group. The grouping is over the ranks of the communicator in hand,
// so the pattern follows the processes through remaps (rank-parametric,
// like an SPMD phase).
func onlineGroupWindow(c *mpi.Comm, groups, chunk int, strided bool) error {
	color := c.Rank() / (c.Size() / groups)
	if strided {
		color = c.Rank() % groups
	}
	sub, err := c.Split(color, c.Rank())
	if err != nil {
		return err
	}
	return sub.AllgatherN(chunk)
}

func onlineRun(cfg OnlineConfig, mode string) (time.Duration, int, error) {
	mach := netsim.PlaFRIM(Nodes(cfg.NP))
	rr, err := treematch.PlacementRoundRobin(cfg.NP, mach.Topo)
	if err != nil {
		return 0, 0, err
	}
	w, err := newWorld(mach, cfg.NP, mpi.WithPlacement(rr))
	if err != nil {
		return 0, 0, err
	}
	totalWindows := cfg.Phases * cfg.WindowsPerPhase
	window := func(idx int) func(*mpi.Comm) error {
		strided := (idx/cfg.WindowsPerPhase)%2 == 1
		return func(cc *mpi.Comm) error {
			return onlineGroupWindow(cc, cfg.Groups, cfg.ChunkBytes, strided)
		}
	}
	remaps := 0
	err = w.Run(func(c *mpi.Comm) error {
		switch mode {
		case "baseline":
			for i := 0; i < totalWindows; i++ {
				if err := window(i)(c); err != nil {
					return err
				}
			}
			return nil
		case "static":
			env, err := monitoring.Init(c.Proc())
			if err != nil {
				return err
			}
			defer env.Finalize()
			work, k, err := reorder.MonitorAndReorder(env, c, window(0))
			if err != nil {
				return err
			}
			if c.Rank() == 0 && !isIdentity(k) {
				remaps = 1
			}
			for i := 1; i < totalWindows; i++ {
				if err := window(i)(work); err != nil {
					return err
				}
			}
			return nil
		case "online":
			env, err := monitoring.Init(c.Proc())
			if err != nil {
				return err
			}
			defer env.Finalize()
			ctl, err := online.New(env, c, online.WithWindow(1))
			if err != nil {
				return err
			}
			defer ctl.Close()
			for i := 0; i < totalWindows; i++ {
				if _, _, err := ctl.Step(window(i)); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				remaps = ctl.Remaps()
			}
			return nil
		default:
			return fmt.Errorf("unknown mode %q", mode)
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return w.MaxClock(), remaps, nil
}

// PrintOnline writes the TSV consumed by results/online_reorder.tsv.
func PrintOnline(w io.Writer, rows []OnlineRow) {
	Fprintf(w, "# mode\ttotal_ms\tremaps\tspeedup_vs_baseline\n")
	base := 0.0
	for _, r := range rows {
		if r.Mode == "baseline" {
			base = r.TotalMs
		}
	}
	for _, r := range rows {
		speedup := 0.0
		if r.TotalMs > 0 {
			speedup = base / r.TotalMs
		}
		Fprintf(w, "%s\t%.2f\t%d\t%.2fx\n", r.Mode, r.TotalMs, r.Remaps, speedup)
	}
}
