package exp

import (
	"fmt"
	"io"
	"time"

	"mpimon/internal/coll"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
)

// This file implements the guideline-verification experiment in the
// spirit of Hunold et al., "Tuning MPI Collectives by Verifying
// Performance Guidelines" (PAPERS.md): a collective should never be
// slower than an equivalent composition of other collectives (its
// "mock-up"). On real clusters such guidelines are checked statistically;
// our netsim clock is deterministic, so every invariant is checked
// *exactly*, and a violation is a hard failure, not a flaky sample.
//
// The left-hand side of each guideline is the portfolio-tuned collective
// (the cheapest algorithm internal/coll knows for the point); the table
// also records whether the *default* algorithm alone satisfied the
// guideline, so the output doubles as the motivation table for the
// autotuner: points where default_ok=false are exactly the tuning
// opportunities the portfolio repairs.

// GuidelinesConfig parameterizes the guideline verification sweep. Sizes
// are per-rank block bytes; each collective moves blk*np total payload so
// every divisibility constraint (scatter blocks, reduce-scatter blocks)
// holds at any np.
type GuidelinesConfig struct {
	Topo   string // "plafrim" or "fatnode"
	NPs    []int
	Blocks []int // per-rank block sizes in bytes
	Reps   int
}

// DefaultGuidelines covers small and eager-limit-straddling blocks on the
// paper's cluster model.
var DefaultGuidelines = GuidelinesConfig{
	Topo:   "plafrim",
	NPs:    []int{24, 48},
	Blocks: []int{64, 1024, 16384},
	Reps:   3,
}

// GuidelineRow is one verified invariant at one (np, block) point.
type GuidelineRow struct {
	Guideline string
	NP        int
	Block     int // per-rank bytes
	LHS       time.Duration
	RHS       time.Duration
	DefLHS    time.Duration // default algorithm's cost for the LHS collective
	Alg       coll.Algorithm
	OK        bool // LHS ≤ RHS — the exact invariant
	DefaultOK bool // default algorithm alone satisfied it
}

// MachineFor maps a topology name to a machine constructor.
func MachineFor(topo string) (func(np int) *netsim.Machine, error) {
	switch topo {
	case "", "plafrim":
		return func(np int) *netsim.Machine { return netsim.PlaFRIM(Nodes(np)) }, nil
	case "fatnode":
		return func(np int) *netsim.Machine { return netsim.FatNode((np + 7) / 8) }, nil
	}
	return nil, fmt.Errorf("exp: unknown topology %q (plafrim, fatnode)", topo)
}

// guidelineDef declares one invariant: the LHS operation is verified at
// its portfolio minimum over every algorithm; the RHS is its mock-up.
type guidelineDef struct {
	name  string
	lhsOp coll.Op
	rhs   func(c *mpi.Comm, blk int) error
}

// portfolio is the kernel of one portfolio entry at blk bytes per rank.
// Three mock-ups are exactly a portfolio entry: scatter+allgather is lsag,
// gather+bcast is gb, and a reduce's mock-up is the default allreduce.
func portfolio(op coll.Op, alg coll.Algorithm) func(c *mpi.Comm, blk int) error {
	return func(c *mpi.Comm, blk int) error { return coll.Run(c, op, alg, blk*c.Size()) }
}

func guidelineDefs() []guidelineDef {
	return []guidelineDef{
		{
			name:  "bcast<=scatter+allgather",
			lhsOp: coll.OpBcast,
			rhs:   portfolio(coll.OpBcast, coll.LSAG),
		},
		{
			name:  "allreduce<=reduce+bcast",
			lhsOp: coll.OpAllreduce,
			rhs: func(c *mpi.Comm, blk int) error {
				s := blk * c.Size()
				send := make([]byte, s)
				recv := make([]byte, s)
				if err := c.Reduce(send, recv, mpi.Byte, mpi.OpSum, 0); err != nil {
					return err
				}
				return c.Bcast(recv, 0)
			},
		},
		{
			name:  "allreduce<=reducescatter+allgather",
			lhsOp: coll.OpAllreduce,
			rhs: func(c *mpi.Comm, blk int) error {
				s := blk * c.Size()
				send := make([]byte, s)
				part := make([]byte, blk)
				if err := c.ReduceScatterBlock(send, part, mpi.Byte, mpi.OpSum); err != nil {
					return err
				}
				return c.Allgather(part, send)
			},
		},
		{
			name:  "allgather<=gather+bcast",
			lhsOp: coll.OpAllgather,
			rhs:   portfolio(coll.OpAllgather, coll.GB),
		},
		{
			name:  "reduce<=allreduce",
			lhsOp: coll.OpReduce,
			rhs:   portfolio(coll.OpAllreduce, coll.Default),
		},
	}
}

// Guidelines verifies every declared invariant over the config grid and
// returns one row per (guideline, np, block) point. Rows with OK=false
// are genuine violations — on a deterministic simulator there is no
// noise to blame, so callers should treat any of them as a hard failure.
func Guidelines(cfg GuidelinesConfig) ([]GuidelineRow, error) {
	machine, err := MachineFor(cfg.Topo)
	if err != nil {
		return nil, err
	}
	if err := checkGrid("guidelines", "blocks", cfg.NPs, cfg.Blocks, cfg.Reps); err != nil {
		return nil, err
	}
	measure := func(np, blk int, kernel func(c *mpi.Comm, blk int) error) (time.Duration, error) {
		return coll.Measure(machine(np), np, cfg.Reps, worldOptions, func(c *mpi.Comm) error { return kernel(c, blk) })
	}
	var rows []GuidelineRow
	for _, def := range guidelineDefs() {
		for _, np := range cfg.NPs {
			for _, blk := range cfg.Blocks {
				row := GuidelineRow{Guideline: def.name, NP: np, Block: blk}
				// Portfolio minimum: measure every algorithm of the
				// operation; the default's own cost rides along.
				for _, alg := range coll.Algorithms(def.lhsOp) {
					d, err := measure(np, blk, portfolio(def.lhsOp, alg))
					if err != nil {
						return nil, fmt.Errorf("exp: guideline %s lhs %s/%s np=%d blk=%d: %w", def.name, def.lhsOp, alg, np, blk, err)
					}
					if alg == coll.Default {
						row.DefLHS = d
					}
					if row.LHS == 0 || d < row.LHS {
						row.LHS, row.Alg = d, alg
					}
				}
				rhs, err := measure(np, blk, def.rhs)
				if err != nil {
					return nil, fmt.Errorf("exp: guideline %s rhs np=%d blk=%d: %w", def.name, np, blk, err)
				}
				row.RHS = rhs
				row.OK = row.LHS <= row.RHS
				row.DefaultOK = row.DefLHS <= row.RHS
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// checkGrid rejects a measurement grid no world can be built or timed for;
// sizesName names the sizes in the error.
func checkGrid(what, sizesName string, nps, sizes []int, reps int) error {
	if err := checkNPs(what, nps...); err != nil {
		return err
	}
	if err := checkSizes(what+" "+sizesName, sizes); err != nil {
		return err
	}
	return checkReps(what, reps)
}

// Violations filters the rows that break their invariant.
func Violations(rows []GuidelineRow) []GuidelineRow {
	var bad []GuidelineRow
	for _, r := range rows {
		if !r.OK {
			bad = append(bad, r)
		}
	}
	return bad
}

// PrintGuidelines writes the verification table.
func PrintGuidelines(w io.Writer, rows []GuidelineRow) {
	Fprintf(w, "# guideline\tnp\tblock_bytes\ttuned_ns\talg\tdefault_ns\tmockup_ns\tok\tdefault_ok\n")
	for _, r := range rows {
		Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%d\t%d\t%v\t%v\n",
			r.Guideline, r.NP, r.Block, r.LHS.Nanoseconds(), r.Alg,
			r.DefLHS.Nanoseconds(), r.RHS.Nanoseconds(), r.OK, r.DefaultOK)
	}
}

// AutotuneConfig parameterizes the autotuner sweep: measure the full
// portfolio on the grid, then verify the pick is never slower than the
// fixed default anywhere on it.
type AutotuneConfig struct {
	Topo  string
	Ops   []coll.Op
	NPs   []int
	Sizes []int // total payload bytes
	Reps  int
}

// DefaultAutotune is the acceptance grid: np ∈ {48, 96, 192} × 8 buffer
// sizes straddling the eager limit.
var DefaultAutotune = AutotuneConfig{
	Topo:  "plafrim",
	Ops:   []coll.Op{coll.OpAllreduce},
	NPs:   []int{48, 96, 192},
	Sizes: []int{4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288},
	Reps:  3,
}

// AutotuneRow is one sweep point: the default's cost, the tuner's pick,
// and its cost.
type AutotuneRow struct {
	Op      coll.Op
	NP      int
	Size    int
	Alg     coll.Algorithm
	Default time.Duration
	Picked  time.Duration
}

// AutotuneSweep tunes over the grid and evaluates the picks. The returned
// error is non-nil if any pick is slower than the default — impossible by
// construction (the pick is the argmin over a set containing the
// default), so a failure here means the measurement itself lost its
// determinism.
func AutotuneSweep(cfg AutotuneConfig) ([]AutotuneRow, error) {
	machine, err := MachineFor(cfg.Topo)
	if err != nil {
		return nil, err
	}
	if err := checkGrid("autotune sweep", "sizes", cfg.NPs, cfg.Sizes, cfg.Reps); err != nil {
		return nil, err
	}
	ccfg := coll.Config{Machine: machine, NPs: cfg.NPs, Sizes: cfg.Sizes, Reps: cfg.Reps, Opts: worldOptions}
	var rows []AutotuneRow
	for _, op := range cfg.Ops {
		table, err := coll.Tune(ccfg, op)
		if err != nil {
			return nil, err
		}
		for _, p := range table.Points() {
			def, _ := table.Cost(p, coll.Default)
			pick := table.Pick(p)
			picked, _ := table.Cost(p, pick)
			rows = append(rows, AutotuneRow{Op: p.Op, NP: p.NP, Size: p.Size, Alg: pick, Default: def, Picked: picked})
			if picked > def {
				return nil, fmt.Errorf("exp: autotuner picked %s for %s np=%d size=%d at %v, slower than default %v",
					pick, p.Op, p.NP, p.Size, picked, def)
			}
		}
	}
	return rows, nil
}

// PrintAutotune writes the sweep table.
func PrintAutotune(w io.Writer, rows []AutotuneRow) {
	Fprintf(w, "# op\tnp\tsize_bytes\tdefault_ns\tpicked\tpicked_ns\tspeedup\n")
	for _, r := range rows {
		speedup := 1.0
		if r.Picked > 0 {
			speedup = float64(r.Default) / float64(r.Picked)
		}
		Fprintf(w, "%s\t%d\t%d\t%d\t%s\t%d\t%.3fx\n",
			r.Op, r.NP, r.Size, r.Default.Nanoseconds(), r.Alg, r.Picked.Nanoseconds(), speedup)
	}
}
