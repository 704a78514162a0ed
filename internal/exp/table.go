package exp

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"mpimon/internal/coll"
)

// experiments is the cmd/exp table, in the order `exp` lists it. A row's
// flags keep the names and defaults the experiment has always had; a flag's
// default is the value its config field holds when the flag is registered.
var experiments = []experiment{
	{
		name: "collopt",
		doc:  "Fig. 5: reduce/bcast walltime, round-robin mapping vs monitoring-driven reordering",
		setup: func(fs *flag.FlagSet) func(io.Writer) error {
			cfg := DefaultCollOpt
			fs.StringVar(&cfg.Op, "op", cfg.Op, "collective: reduce or bcast")
			intsVar(fs, &cfg.NPs, "np", "world sizes")
			intsVar(fs, &cfg.BufSizes, "sizes", "buffer sizes in 1000-int units")
			fs.IntVar(&cfg.Reps, "reps", cfg.Reps, "repetitions (median reported)")
			return func(w io.Writer) error {
				rows, err := CollectiveOpt(cfg)
				if err != nil {
					return err
				}
				PrintCollOpt(w, rows)
				return nil
			}
		},
	},
	{
		name: "engine-scale",
		doc:  "event-engine scaling: events/s, wall time and live heap at np 4096..65536, plus the TreeMatch mapping",
		setup: func(fs *flag.FlagSet) func(io.Writer) error {
			cfg := DefaultEngineScale
			intsVar(fs, &cfg.NPs, "np", "world sizes (perfect squares)")
			fs.IntVar(&cfg.Iters, "iters", cfg.Iters, "monitored halo-exchange iterations")
			fs.IntVar(&cfg.MsgBytes, "msg", cfg.MsgBytes, "halo message size in bytes (skeleton)")
			fs.IntVar(&cfg.MapUpTo, "map-up-to", cfg.MapUpTo, "largest np that also runs the TreeMatch mapping")
			return func(w io.Writer) error {
				rows, err := EngineScale(cfg)
				if err != nil {
					return err
				}
				PrintEngineScale(w, rows)
				return nil
			}
		},
	},
	{
		name: "faults",
		doc:  "resilience scenario: node death, Revoke/Shrink/Agree recovery, reorder degrading to identity",
		setup: func(fs *flag.FlagSet) func(io.Writer) error {
			cfg := DefaultFaults
			fs.IntVar(&cfg.NP, "np", cfg.NP, "world size")
			fs.IntVar(&cfg.Clique, "clique", cfg.Clique, "ranks per communication clique")
			fs.IntVar(&cfg.MsgSize, "size", cfg.MsgSize, "allgather block bytes")
			fs.IntVar(&cfg.Iters, "iters", cfg.Iters, "iteration budget")
			fs.DurationVar(&cfg.DeathAt, "death-at", cfg.DeathAt, "virtual death time of the last node")
			fs.DurationVar(&cfg.MappingTimeout, "map-timeout", cfg.MappingTimeout, "virtual mapping timeout of the post-recovery reorder")
			return func(w io.Writer) error {
				res, err := Faults(cfg)
				if err != nil {
					return err
				}
				PrintFaults(w, cfg, res)
				return nil
			}
		},
	},
	{
		name: "gather-scale",
		doc:  "sparse monitoring gathers: wire bytes and root peak memory vs the dense 16n² at np 256..4096",
		setup: func(fs *flag.FlagSet) func(io.Writer) error {
			cfg := DefaultGatherScale
			intsVar(fs, &cfg.NPs, "np", "world sizes (perfect squares)")
			fs.IntVar(&cfg.Iters, "iters", cfg.Iters, "monitored halo-exchange iterations")
			fs.IntVar(&cfg.MsgBytes, "msg", cfg.MsgBytes, "halo message size in bytes (skeleton)")
			fs.IntVar(&cfg.AllgatherUpTo, "allgather-up-to", cfg.AllgatherUpTo, "largest np that also runs the sparse allgather")
			return func(w io.Writer) error {
				rows, err := GatherScale(cfg)
				if err != nil {
					return err
				}
				PrintGatherScale(w, rows)
				return nil
			}
		},
	},
	{
		name:  "guidelines",
		doc:   "Hunold performance guidelines checked exactly on the netsim clock, plus the autotuner sweep; a violation fails the run",
		setup: setupGuidelines,
	},
	{
		name: "hwcounters",
		doc:  "Fig. 2/3: simulated NIC hardware counters vs introspection monitoring, sampled every 10 ms",
		setup: func(fs *flag.FlagSet) func(io.Writer) error {
			cfg := DefaultHWCounters
			fs.DurationVar(&cfg.Duration, "duration", cfg.Duration, "virtual experiment duration")
			fs.DurationVar(&cfg.Period, "period", cfg.Period, "sampling period")
			fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "message schedule seed")
			cumulative := fs.Bool("cumulative", false, "print Fig. 3 running sums instead of the Fig. 2 series")
			return func(w io.Writer) error {
				res, err := HWCounters(cfg)
				if err != nil {
					return err
				}
				res.PrintSeries(w, *cumulative)
				return nil
			}
		},
	},
	{
		name: "nascg",
		doc:  "Fig. 7: NAS CG (skeleton) gains of dynamic reordering, classes B-D, 64-256 ranks, three mappings",
		setup: func(fs *flag.FlagSet) func(io.Writer) error {
			cfg := DefaultCG
			classes := fs.String("classes", strings.Join(cfg.Classes, ","), "NPB classes")
			intsVar(fs, &cfg.NPs, "np", "rank counts")
			mappings := fs.String("mappings", strings.Join(cfg.Mappings, ","), "initial mappings")
			fs.IntVar(&cfg.Niter, "niter", cfg.Niter, "outer iterations (0 = class default)")
			fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random-mapping seed")
			return func(w io.Writer) error {
				cfg.Classes, cfg.Mappings = parseStrings(*classes), parseStrings(*mappings)
				rows, err := CGReorder(cfg)
				if err != nil {
					return err
				}
				PrintCG(w, rows)
				return nil
			}
		},
	},
	{
		name: "online",
		doc:  "online re-reordering on alternating traffic phases: baseline vs reorder-once vs the drift-triggered controller",
		setup: func(fs *flag.FlagSet) func(io.Writer) error {
			cfg := DefaultOnline
			fs.IntVar(&cfg.NP, "np", cfg.NP, "world size")
			fs.IntVar(&cfg.Groups, "groups", cfg.Groups, "allgather groups per window")
			fs.IntVar(&cfg.ChunkBytes, "chunk", cfg.ChunkBytes, "per-rank allgather contribution in bytes")
			fs.IntVar(&cfg.Phases, "phases", cfg.Phases, "traffic phases (the pattern flips between them)")
			fs.IntVar(&cfg.WindowsPerPhase, "windows", cfg.WindowsPerPhase, "windows per phase")
			return func(w io.Writer) error {
				rows, err := OnlineReorder(cfg)
				if err != nil {
					return err
				}
				PrintOnline(w, rows)
				return nil
			}
		},
	},
	{
		name: "overhead",
		doc:  "Fig. 4: virtual reduce time with and without monitoring (the difference is exactly zero)",
		setup: func(fs *flag.FlagSet) func(io.Writer) error {
			cfg := DefaultOverhead
			intsVar(fs, &cfg.NPs, "np", "world sizes")
			intsVar(fs, &cfg.Sizes, "sizes", "message sizes in bytes")
			fs.IntVar(&cfg.Reps, "reps", cfg.Reps, "repetitions (median reported)")
			return func(w io.Writer) error {
				rows, err := Overhead(cfg)
				if err != nil {
					return err
				}
				PrintOverhead(w, rows)
				return nil
			}
		},
	},
	{
		name: "reorder-heatmap",
		doc:  "Fig. 6: gain of reordering allgather groups across iteration counts and buffer sizes",
		setup: func(fs *flag.FlagSet) func(io.Writer) error {
			// DefaultHeatmap stops at 1000 iterations to keep the run in
			// minutes; pass -iters 1,10,100,1000,10000 for the paper's grid.
			cfg := DefaultHeatmap
			intsVar(fs, &cfg.NPs, "np", "world sizes")
			ascii := fs.Bool("ascii", false, "render the heat map as ASCII art instead of TSV")
			intsVar(fs, &cfg.BufSizes, "bufs", "buffer sizes in MPI_INT")
			intsVar(fs, &cfg.Iters, "iters", "iteration counts")
			return func(w io.Writer) error {
				cells, err := ReorderHeatmap(cfg)
				if err != nil {
					return err
				}
				if *ascii {
					RenderHeatmap(w, cells)
				} else {
					PrintHeatmap(w, cells)
				}
				return nil
			}
		},
	},
	{
		name: "serve",
		doc:  "monitoring daemon end to end: N worlds stream epochs, every served matrix checked against the local gather",
		setup: func(fs *flag.FlagSet) func(io.Writer) error {
			cfg := DefaultServe
			fs.IntVar(&cfg.Worlds, "worlds", cfg.Worlds, "concurrent simulated worlds (jobs)")
			fs.IntVar(&cfg.NP, "np", cfg.NP, "ranks per world (perfect square)")
			fs.IntVar(&cfg.Epochs, "epochs", cfg.Epochs, "monitoring epochs (Suspend/Reset/Continue cycles) per world")
			fs.IntVar(&cfg.Retention, "retention", cfg.Retention, "daemon retention window K (live epochs per job)")
			fs.IntVar(&cfg.Iters, "iters", cfg.Iters, "base halo-exchange iterations per epoch")
			fs.IntVar(&cfg.MsgBytes, "msg", cfg.MsgBytes, "base halo message size in bytes (skeleton)")
			fs.StringVar(&cfg.BaseURL, "daemon", "", "base URL of an external mpimond (empty: in-process daemon)")
			fs.IntVar(&cfg.ExportThreshold, "export-threshold", 0, "row-export commit threshold: 0 batches one epoch per frame, >0 sets the threshold (negative is an error)")
			return func(w io.Writer) error {
				res, err := Serve(cfg)
				if err != nil {
					return err
				}
				PrintServe(w, res)
				if res.Matched != len(res.Worlds) {
					return fmt.Errorf("only %d/%d worlds matched", res.Matched, len(res.Worlds))
				}
				return nil
			}
		},
	},
	{
		name: "treematch-scale",
		doc:  "Table 1: TreeMatch time on matrices of order 8192..65536; -from-world maps matrices gathered from stencil worlds",
		setup: func(fs *flag.FlagSet) func(io.Writer) error {
			cfg := DefaultTMScale
			intsVar(fs, &cfg.Orders, "orders", "matrix orders")
			fs.BoolVar(&cfg.FromWorld, "from-world", false, "map matrices gathered from real monitored stencil worlds (orders must be perfect squares)")
			fs.IntVar(&cfg.Iters, "iters", 0, "from-world: monitored halo-exchange iterations (0 = default)")
			fs.IntVar(&cfg.MsgBytes, "msg", 0, "from-world: halo message size in bytes (0 = default)")
			return func(w io.Writer) error {
				rows, err := TreeMatchScale(cfg)
				if err != nil {
					return err
				}
				PrintTMScale(w, rows)
				return nil
			}
		},
	},
}

func setupGuidelines(fs *flag.FlagSet) func(io.Writer) error {
	cfg, acfg := DefaultGuidelines, DefaultAutotune
	fs.StringVar(&cfg.Topo, "topo", cfg.Topo, "machine model: plafrim or fatnode")
	intsVar(fs, &cfg.NPs, "np", "world sizes for the guideline checks")
	intsVar(fs, &cfg.Blocks, "blocks", "per-rank block sizes in bytes for the guideline checks")
	fs.IntVar(&cfg.Reps, "reps", cfg.Reps, "repetitions (median reported)")
	sweep := fs.Bool("sweep", true, "also run the autotuner sweep")
	intsVar(fs, &acfg.NPs, "sweep-np", "world sizes for the autotuner sweep")
	intsVar(fs, &acfg.Sizes, "sweep-sizes", "total payload bytes for the autotuner sweep")
	sweepOps := fs.String("sweep-ops", "allreduce", "operations to sweep")
	return func(w io.Writer) error {
		rows, err := Guidelines(cfg)
		if err != nil {
			return err
		}
		PrintGuidelines(w, rows)

		if *sweep {
			acfg.Topo, acfg.Reps = cfg.Topo, cfg.Reps
			acfg.Ops = nil
			for _, o := range parseStrings(*sweepOps) {
				acfg.Ops = append(acfg.Ops, coll.Op(o))
			}
			arows, err := AutotuneSweep(acfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(w)
			PrintAutotune(w, arows)
		}

		if bad := Violations(rows); len(bad) > 0 {
			var b strings.Builder
			fmt.Fprintf(&b, "%d guideline violation(s):", len(bad))
			for _, r := range bad {
				fmt.Fprintf(&b, "\n  %s np=%d block=%d: tuned %v > mockup %v",
					r.Guideline, r.NP, r.Block, r.LHS, r.RHS)
			}
			return errors.New(b.String())
		}
		return nil
	}
}
