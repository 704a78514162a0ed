package exp

import (
	"io"
	"sort"
	"time"

	"mpimon/internal/monitoring"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/reorder"
	"mpimon/internal/treematch"
)

// HeatmapConfig parameterizes Fig. 6: groups of ranks repeatedly
// allgather; each group initially straddles the nodes (round-robin
// placement, consecutive-rank groups), then one reordering co-locates it.
type HeatmapConfig struct {
	NPs      []int // paper: 48, 96, 192
	BufSizes []int // in MPI_INT (4 bytes); paper: 1e0 .. 1e5
	Iters    []int // paper: 1 .. 1e4 (log scale)
}

// DefaultHeatmap mirrors the paper's axes (trimmed to the log-scale grid;
// the 10000-iteration row of the paper is left opt-in because it multiplies
// the run time by ten without changing the shape).
var DefaultHeatmap = HeatmapConfig{
	NPs:      []int{48, 96, 192},
	BufSizes: []int{1, 10, 100, 1000, 10000, 100000},
	Iters:    []int{1, 10, 100, 1000},
}

// HeatCell is one cell of the Fig. 6 heat map.
type HeatCell struct {
	NP      int
	BufInts int
	Iters   int
	// GainPct is 100*(t1-(t2+t3))/t1: positive when the reordering pays
	// off, negative when its overhead dominates.
	GainPct    float64
	T1, T2, T3 time.Duration
}

// ReorderHeatmap measures, for each cell, t1 = n iterations before
// reordering, t2 = the reordering step itself (monitoring readout,
// gather, TreeMatch, broadcast, split), and t3 = n iterations after, all
// in communication (virtual) time, and reports the paper's gain formula.
func ReorderHeatmap(cfg HeatmapConfig) ([]HeatCell, error) {
	if err := checkNPs("reorder-heatmap", cfg.NPs...); err != nil {
		return nil, err
	}
	if err := checkSizes("reorder-heatmap bufs", cfg.BufSizes); err != nil {
		return nil, err
	}
	for _, n := range cfg.Iters {
		if err := checkCount("reorder-heatmap", "iters", n); err != nil {
			return nil, err
		}
	}
	var cells []HeatCell
	for _, np := range cfg.NPs {
		for _, buf := range cfg.BufSizes {
			for _, n := range cfg.Iters {
				cell, err := heatCell(np, buf, n)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

func heatCell(np, bufInts, iters int) (HeatCell, error) {
	mach := netsim.PlaFRIM(Nodes(np))
	rr, err := treematch.PlacementRoundRobin(np, mach.Topo)
	if err != nil {
		return HeatCell{}, err
	}
	w, err := newWorld(mach, np, mpi.WithPlacement(rr))
	if err != nil {
		return HeatCell{}, err
	}
	groups := Nodes(np) // one group per node's worth of ranks
	bytes := bufInts * 4
	cell := HeatCell{NP: np, BufInts: bufInts, Iters: iters}

	phase := func(c *mpi.Comm, n int) error {
		groupSize := c.Size() / groups
		sub, err := c.Split(c.Rank()/groupSize, c.Rank())
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := sub.AllgatherN(bytes); err != nil {
				return err
			}
		}
		return nil
	}

	err = w.Run(func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		defer env.Finalize()
		p := c.Proc()

		// t1: n iterations on the original communicator.
		if err := c.Barrier(); err != nil {
			return err
		}
		t0 := p.Clock()
		if err := phase(c, iters); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		t1 := p.Clock() - t0

		// t2: monitor one iteration and reorder. The monitored iteration
		// is part of the reordering cost.
		t0 = p.Clock()
		opt, _, err := reorder.MonitorAndReorder(env, c, func(cc *mpi.Comm) error {
			return phase(cc, 1)
		})
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		t2 := p.Clock() - t0

		// t3: n iterations on the optimized communicator.
		t0 = p.Clock()
		if err := phase(opt, iters); err != nil {
			return err
		}
		if err := opt.Barrier(); err != nil {
			return err
		}
		t3 := p.Clock() - t0

		if c.Rank() == 0 {
			cell.T1, cell.T2, cell.T3 = t1, t2, t3
			cell.GainPct = 100 * float64(t1-(t2+t3)) / float64(t1)
		}
		return nil
	})
	if err != nil {
		return HeatCell{}, err
	}
	return cell, nil
}

// PrintHeatmap writes the Fig. 6 cells: np, buffer size (ints), iteration
// count, gain percent, and the three raw timings.
func PrintHeatmap(w io.Writer, cells []HeatCell) {
	Fprintf(w, "# np\tbuf_int\titers\tgain_pct\tt1_ms\tt2_ms\tt3_ms\n")
	for _, c := range cells {
		Fprintf(w, "%d\t%d\t%d\t%+.1f\t%.3f\t%.3f\t%.3f\n",
			c.NP, c.BufInts, c.Iters, c.GainPct, Ms(c.T1), Ms(c.T2), Ms(c.T3))
	}
}

// RenderHeatmap draws the Fig. 6 heat map as ASCII art, one block per NP:
// rows are iteration counts (top = most), columns are buffer sizes, and
// each cell is a gain bucket — '#' ≥ 80%, '+' ≥ 40%, '.' ≥ 0%, '-' < 0%
// (the paper's green-to-red scale).
func RenderHeatmap(w io.Writer, cells []HeatCell) {
	byNP := map[int][]HeatCell{}
	var nps []int
	for _, c := range cells {
		if _, ok := byNP[c.NP]; !ok {
			nps = append(nps, c.NP)
		}
		byNP[c.NP] = append(byNP[c.NP], c)
	}
	sort.Ints(nps)
	for _, np := range nps {
		group := byNP[np]
		bufsSet := map[int]bool{}
		itersSet := map[int]bool{}
		gain := map[[2]int]float64{}
		for _, c := range group {
			bufsSet[c.BufInts] = true
			itersSet[c.Iters] = true
			gain[[2]int{c.BufInts, c.Iters}] = c.GainPct
		}
		bufs := sortedKeys(bufsSet)
		iters := sortedKeys(itersSet)
		Fprintf(w, "NP = %d  (rows: iterations, cols: buffer size in MPI_INT)\n", np)
		for i := len(iters) - 1; i >= 0; i-- {
			Fprintf(w, "%8d |", iters[i])
			for _, b := range bufs {
				g, ok := gain[[2]int{b, iters[i]}]
				switch {
				case !ok:
					Fprintf(w, "  ")
				case g >= 80:
					Fprintf(w, " #")
				case g >= 40:
					Fprintf(w, " +")
				case g >= 0:
					Fprintf(w, " .")
				default:
					Fprintf(w, " -")
				}
			}
			Fprintf(w, "\n")
		}
		Fprintf(w, "%8s +", "")
		for range bufs {
			Fprintf(w, "--")
		}
		Fprintf(w, "\n%8s  ", "")
		for _, b := range bufs {
			Fprintf(w, " %c", magnitudeRune(b))
		}
		Fprintf(w, "   (columns: ")
		for i, b := range bufs {
			if i > 0 {
				Fprintf(w, ", ")
			}
			Fprintf(w, "%c=%d", magnitudeRune(b), b)
		}
		Fprintf(w, ")\n  legend: '#' gain>=80%%  '+' >=40%%  '.' >=0%%  '-' negative\n\n")
	}
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// magnitudeRune labels a column by its order of magnitude: 'a' for 1,
// 'b' for 10, and so on.
func magnitudeRune(v int) byte {
	m := 0
	for v >= 10 {
		v /= 10
		m++
	}
	return byte('a' + m)
}
