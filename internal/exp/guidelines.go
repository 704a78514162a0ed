package exp

import (
	"fmt"
	"io"
	"sort"
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

// guidelineDef declares one invariant. The LHS is the operation verified
// (portfolio-min over its algorithms, or the fixed lhs kernel when the
// portfolio has no entry for it); the RHS is its mock-up.
type guidelineDef struct {
	name  string
	lhsOp coll.Op                          // portfolio-min LHS when non-empty
	lhs   func(c *mpi.Comm, blk int) error // fixed LHS kernel otherwise
	rhs   func(c *mpi.Comm, blk int) error
}

func guidelineDefs() []guidelineDef {
	return []guidelineDef{
		{
			name:  "bcast<=scatter+allgather",
			lhsOp: coll.OpBcast,
			rhs: func(c *mpi.Comm, blk int) error {
				n := c.Size()
				full := make([]byte, blk*n)
				part := make([]byte, blk)
				if err := c.Scatter(full, part, 0); err != nil {
					return err
				}
				return c.Allgather(part, full)
			},
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
			rhs: func(c *mpi.Comm, blk int) error {
				n := c.Size()
				part := make([]byte, blk)
				full := make([]byte, blk*n)
				if err := c.Gather(part, full, 0); err != nil {
					return err
				}
				return c.Bcast(full, 0)
			},
		},
		{
			name:  "reduce<=allreduce",
			lhsOp: coll.OpReduce,
			rhs: func(c *mpi.Comm, blk int) error {
				s := blk * c.Size()
				return c.Allreduce(make([]byte, s), make([]byte, s), mpi.Byte, mpi.OpSum)
			},
		},
	}
}

// measureKernel times one composite kernel in a fresh world: an opening
// barrier aligns the ranks, then reps timed iterations each closed by a
// barrier; the rank-0 median of the clock deltas is returned. Fresh
// worlds keep measurements order-independent (NIC contention state never
// leaks between points).
func measureKernel(mach *netsim.Machine, np, blk, reps int, kernel func(c *mpi.Comm, blk int) error) (time.Duration, error) {
	if reps <= 0 {
		reps = 3
	}
	w, err := newWorld(mach, np)
	if err != nil {
		return 0, err
	}
	var med time.Duration
	err = w.Run(func(c *mpi.Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		ds := make([]time.Duration, 0, reps)
		for i := 0; i < reps; i++ {
			t0 := c.Proc().Clock()
			if err := kernel(c, blk); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			ds = append(ds, c.Proc().Clock()-t0)
		}
		if c.Rank() == 0 {
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			med = ds[len(ds)/2]
		}
		return nil
	})
	return med, err
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
	var rows []GuidelineRow
	for _, def := range guidelineDefs() {
		for _, np := range cfg.NPs {
			for _, blk := range cfg.Blocks {
				row := GuidelineRow{Guideline: def.name, NP: np, Block: blk, Alg: coll.Default}
				if def.lhsOp != "" {
					// Portfolio minimum: measure every algorithm of the
					// operation; the default's own cost rides along.
					best := time.Duration(0)
					for _, alg := range coll.Algorithms(def.lhsOp) {
						op, a := def.lhsOp, alg
						d, err := measureKernel(machine(np), np, blk, cfg.Reps, func(c *mpi.Comm, blk int) error {
							return coll.Run(c, op, a, blk*c.Size())
						})
						if err != nil {
							return nil, fmt.Errorf("exp: guideline %s lhs %s/%s np=%d blk=%d: %w", def.name, op, a, np, blk, err)
						}
						if alg == coll.Default {
							row.DefLHS = d
						}
						if best == 0 || d < best {
							best, row.Alg = d, alg
						}
					}
					row.LHS = best
				} else {
					d, err := measureKernel(machine(np), np, blk, cfg.Reps, def.lhs)
					if err != nil {
						return nil, fmt.Errorf("exp: guideline %s lhs np=%d blk=%d: %w", def.name, np, blk, err)
					}
					row.LHS, row.DefLHS = d, d
				}
				rhs, err := measureKernel(machine(np), np, blk, cfg.Reps, def.rhs)
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
func AutotuneSweep(cfg AutotuneConfig) ([]AutotuneRow, *coll.Table, error) {
	machine, err := MachineFor(cfg.Topo)
	if err != nil {
		return nil, nil, err
	}
	ccfg := coll.Config{
		Topo:    cfg.Topo,
		Machine: machine,
		NPs:     cfg.NPs,
		Sizes:   cfg.Sizes,
		Reps:    cfg.Reps,
		Opts:    append([]mpi.Option(nil), worldOptions...),
	}
	table := coll.NewTable(cfg.Topo)
	var rows []AutotuneRow
	for _, op := range cfg.Ops {
		sub, err := coll.Tune(ccfg, op)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range sub.Points() {
			def, _ := sub.Cost(p.Op, p.NP, p.Size, coll.Default)
			pick := sub.Pick(p.Op, p.NP, p.Size)
			picked, _ := sub.Cost(p.Op, p.NP, p.Size, pick)
			rows = append(rows, AutotuneRow{Op: p.Op, NP: p.NP, Size: p.Size, Alg: pick, Default: def, Picked: picked})
			if picked > def {
				return nil, nil, fmt.Errorf("exp: autotuner picked %s for %s np=%d size=%d at %v, slower than default %v",
					pick, p.Op, p.NP, p.Size, picked, def)
			}
			for _, alg := range coll.Algorithms(p.Op) {
				if d, ok := sub.Cost(p.Op, p.NP, p.Size, alg); ok {
					table.Set(p.Op, p.NP, p.Size, alg, d)
				}
			}
		}
	}
	return rows, table, nil
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
