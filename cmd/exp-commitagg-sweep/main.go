// Command exp-commitagg-sweep records the commit-policy grid: a stencil
// world per (threshold × interval) cell, each pinned bit-identical to
// the eager baseline (pml matrices and telemetry counter totals) and
// scored by its amortization — how many counter updates one registry
// fold absorbs on the telemetry cells. The recorded output is
// results/commitagg_sweep.tsv, the grid that picked
// commitagg.DefaultThreshold (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"mpimon/internal/exp"
)

func main() {
	np := flag.Int("np", exp.DefaultCommitSweep.NP, "world size (perfect square)")
	iters := flag.Int("iters", exp.DefaultCommitSweep.Iters, "halo-exchange iterations")
	msg := flag.Int("msg", exp.DefaultCommitSweep.MsgBytes, "halo message size in bytes")
	engine := flag.String("engine", "auto", "execution engine: goroutine, event, or auto")
	flag.Parse()
	if err := exp.EngineSetup(*engine); err != nil {
		fmt.Fprintln(os.Stderr, "exp-commitagg-sweep:", err)
		os.Exit(1)
	}
	cfg := exp.DefaultCommitSweep
	cfg.NP, cfg.Iters, cfg.MsgBytes = *np, *iters, *msg
	rows, err := exp.CommitSweep(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "exp-commitagg-sweep:", err)
		os.Exit(1)
	}
	exp.PrintCommitSweep(os.Stdout, cfg, rows)
}
