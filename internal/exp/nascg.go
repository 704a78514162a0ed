package exp

import (
	"fmt"
	"io"
	"time"

	"mpimon/internal/cg"
	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/reorder"
	"mpimon/internal/treematch"
)

// CGConfig parameterizes Fig. 7: the NAS CG kernel with and without
// dynamic rank reordering, for several classes, rank counts and initial
// mappings.
type CGConfig struct {
	Classes  []string // paper: B, C, D
	NPs      []int    // paper: 64, 128, 256 (on 3, 6, 11 nodes)
	Mappings []string // "random", "rr", "standard"
	// Niter caps the outer iterations of the skeleton (the per-iteration
	// pattern is identical, so ratios are unchanged); 0 = class default.
	Niter int
	Seed  int64 // random-mapping seed
}

// DefaultCG mirrors the paper's sweep with a shortened outer loop.
var DefaultCG = CGConfig{
	Classes:  []string{"B", "C", "D"},
	NPs:      []int{64, 128, 256},
	Mappings: []string{"random", "rr", "standard"},
	Niter:    5,
	Seed:     42,
}

// CGRow is one bar of Fig. 7: the execution-time and communication-time
// ratios of the non-reordered over the reordered run (ratios above 1 mean
// the reordering wins).
type CGRow struct {
	Class   string
	NP      int
	Mapping string

	BaseTotal, ReordTotal time.Duration
	BaseComm, ReordComm   time.Duration
	TotalRatio, CommRatio float64
}

// nasCGNodes returns the node counts the paper uses: 3, 6 and 11 nodes of
// 24 cores for 64, 128 and 256 ranks (cores are left spare).
func nasCGNodes(np int) int {
	switch np {
	case 64:
		return 3
	case 128:
		return 6
	case 256:
		return 11
	default:
		return Nodes(np)
	}
}

func cgPlacement(mapping string, np int, mach *netsim.Machine, seed int64) ([]int, error) {
	switch mapping {
	case "random":
		return treematch.PlacementRandom(np, mach.Topo, seed)
	case "rr", "round-robin":
		return treematch.PlacementRoundRobin(np, mach.Topo)
	case "standard", "packed":
		return treematch.PlacementPacked(np), nil
	default:
		return nil, fmt.Errorf("exp: unknown mapping %q", mapping)
	}
}

// CGReorder runs the Fig. 7 sweep using the CG communication skeleton.
func CGReorder(cfg CGConfig) ([]CGRow, error) {
	var rows []CGRow
	for _, clsName := range cfg.Classes {
		cls, err := cg.ClassByName(clsName)
		if err != nil {
			return nil, err
		}
		for _, np := range cfg.NPs {
			for _, mapping := range cfg.Mappings {
				row, err := cgRow(cls, np, mapping, cfg.Niter, cfg.Seed)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func cgRow(cls cg.Class, np int, mapping string, niter int, seed int64) (CGRow, error) {
	row := CGRow{Class: cls.Name, NP: np, Mapping: mapping}

	base, err := cgRun(cls, np, mapping, niter, seed, false)
	if err != nil {
		return row, err
	}
	reord, err := cgRun(cls, np, mapping, niter, seed, true)
	if err != nil {
		return row, err
	}
	row.BaseTotal, row.BaseComm = base.total, base.comm
	row.ReordTotal, row.ReordComm = reord.total, reord.comm
	row.TotalRatio = float64(base.total) / float64(reord.total)
	row.CommRatio = float64(base.comm) / float64(reord.comm)
	return row, nil
}

type cgTiming struct {
	total time.Duration // rank 0 wall (virtual) time of the timed section
	comm  time.Duration // rank 0 time in MPI calls during it
}

// cgRun executes the CG skeleton once. Both variants perform the same
// work — the NPB initialization conj_grad plus niter outer iterations.
// With reordering, the initialization phase is the monitored phase (as the
// paper does: "the CG code has an initialization phase that does one
// iteration of the conjugate gradient algorithm; we monitor this
// initialization phase to compute the optimized communicator"), ranks are
// reordered, and the remaining iterations run on the optimized
// communicator; the reordering time is charged to the total ("to be fair,
// the time of the reordering is added to the whole timing").
func cgRun(cls cg.Class, np int, mapping string, niter int, seed int64, withReorder bool) (cgTiming, error) {
	mach := netsim.PlaFRIM(nasCGNodes(np))
	place, err := cgPlacement(mapping, np, mach, seed)
	if err != nil {
		return cgTiming{}, err
	}
	w, err := newWorld(mach, np, mpi.WithPlacement(place))
	if err != nil {
		return cgTiming{}, err
	}
	var tm cgTiming
	err = w.Run(func(c *mpi.Comm) error {
		p := c.Proc()
		work := c
		t0, m0 := p.Clock(), p.MPITime()
		initPhase := func(cc *mpi.Comm) error {
			_, err := cg.Run(cc, cg.Config{Class: cls, Mode: cg.Skeleton, Niter: 1, SkipInit: true})
			return err
		}
		if withReorder {
			env, err := monitoring.Init(p)
			if err != nil {
				return err
			}
			defer env.Finalize()
			// Monitor the initialization conj_grad and reorder on its
			// communication matrix (no data redistribution is needed,
			// exactly as in the paper's CG experiment).
			opt, _, err := reorder.MonitorAndReorder(env, c, initPhase)
			if err != nil {
				return err
			}
			work = opt
		} else if err := initPhase(c); err != nil {
			return err
		}
		if _, err := cg.Run(work, cg.Config{Class: cls, Mode: cg.Skeleton, Niter: niter, SkipInit: true}); err != nil {
			return err
		}
		if err := work.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			tm.total = p.Clock() - t0
			tm.comm = p.MPITime() - m0
		}
		return nil
	})
	if err != nil {
		return cgTiming{}, err
	}
	return tm, nil
}

// PrintCG writes the Fig. 7 rows.
func PrintCG(w io.Writer, rows []CGRow) {
	Fprintf(w, "# class\tnp\tmapping\ttotal_ratio\tcomm_ratio\tbase_total_ms\treord_total_ms\tbase_comm_ms\treord_comm_ms\n")
	for _, r := range rows {
		Fprintf(w, "%s\t%d\t%s\t%.3f\t%.3f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			r.Class, r.NP, r.Mapping, r.TotalRatio, r.CommRatio,
			Ms(r.BaseTotal), Ms(r.ReordTotal), Ms(r.BaseComm), Ms(r.ReordComm))
	}
}
