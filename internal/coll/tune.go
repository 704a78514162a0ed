package coll

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
)

// Config parameterizes a tuning run: which machine to measure on, which
// rank counts and message sizes to cover, and how many repetitions per
// point (netsim is deterministic, so reps only guard against warm-up
// artifacts in the world's internal state; the median is recorded).
type Config struct {
	Topo    string                       // table key, e.g. "plafrim"
	Machine func(np int) *netsim.Machine // fresh machine per measurement world
	NPs     []int                        // rank counts to measure
	Sizes   []int                        // total payload bytes per collective
	Reps    int                          // timed repetitions per point (default 3)
	Opts    []mpi.Option                 // extra world options (telemetry, ...)
}

// PlaFRIMConfig is the standard tuning config on the paper's cluster
// model: 24 cores per node, ceil(np/24) nodes.
func PlaFRIMConfig(nps, sizes []int) Config {
	return Config{
		Topo:    "plafrim",
		Machine: func(np int) *netsim.Machine { return netsim.PlaFRIM((np + 23) / 24) },
		NPs:     nps,
		Sizes:   sizes,
	}
}

// key identifies one measured point.
type key struct {
	Op   Op
	NP   int
	Size int
}

// Table holds measured virtual costs per (op, np, size, algorithm) on one
// topology. Zero value is unusable; build with Tune or NewTable.
type Table struct {
	Topo  string
	costs map[key]map[Algorithm]time.Duration
}

// NewTable returns an empty table for the topology, ready for Set.
func NewTable(topo string) *Table {
	return &Table{Topo: topo, costs: make(map[key]map[Algorithm]time.Duration)}
}

// Set records one measured cost.
func (t *Table) Set(op Op, np, size int, alg Algorithm, d time.Duration) {
	k := key{op, np, size}
	m := t.costs[k]
	if m == nil {
		m = make(map[Algorithm]time.Duration)
		t.costs[k] = m
	}
	m[alg] = d
}

// Cost returns the measured cost of one algorithm at an exactly measured
// point.
func (t *Table) Cost(op Op, np, size int, alg Algorithm) (time.Duration, bool) {
	d, ok := t.costs[key{op, np, size}][alg]
	return d, ok
}

// Pick returns the cheapest measured algorithm for the operation at the
// nearest measured (np, size) point: exact np match preferred, otherwise
// nearest by |log np ratio|; size always nearest by |log size ratio|.
// Falls back to Default when the operation was never measured.
func (t *Table) Pick(op Op, np, size int) Algorithm {
	k, ok := t.nearest(op, np, size)
	if !ok {
		return Default
	}
	best := Default
	bestD := time.Duration(math.MaxInt64)
	// Iterate the registry order, not the map, so ties resolve
	// deterministically in favor of the default.
	for _, alg := range algorithms[op] {
		if d, ok := t.costs[k][alg]; ok && d < bestD {
			best, bestD = alg, d
		}
	}
	return best
}

// PickObserved selects using an observed communication matrix row instead
// of an explicit message size: bytes and msgs are the monitored totals
// for the callsite (e.g. pml.Coll class totals between two probes), and
// bytes/msgs is taken as the characteristic payload per call.
func (t *Table) PickObserved(op Op, np int, bytes, msgs uint64) Algorithm {
	if msgs == 0 {
		return Default
	}
	return t.Pick(op, np, int(bytes/msgs))
}

func (t *Table) nearest(op Op, np, size int) (key, bool) {
	best := key{}
	bestScore := math.MaxFloat64
	for k := range t.costs {
		if k.Op != op {
			continue
		}
		score := math.Abs(math.Log(ratio(k.NP, np)))*4 + math.Abs(math.Log(ratio(k.Size, size)))
		if score < bestScore || (score == bestScore && (k.NP < best.NP || (k.NP == best.NP && k.Size < best.Size))) {
			best, bestScore = k, score
		}
	}
	return best, bestScore != math.MaxFloat64
}

func ratio(a, b int) float64 {
	if a < 1 {
		a = 1
	}
	if b < 1 {
		b = 1
	}
	return float64(a) / float64(b)
}

// Points returns the measured (op, np, size) grid in stable order.
func (t *Table) Points() []struct {
	Op   Op
	NP   int
	Size int
} {
	out := make([]struct {
		Op   Op
		NP   int
		Size int
	}, 0, len(t.costs))
	for k := range t.costs {
		out = append(out, struct {
			Op   Op
			NP   int
			Size int
		}{k.Op, k.NP, k.Size})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		if out[i].NP != out[j].NP {
			return out[i].NP < out[j].NP
		}
		return out[i].Size < out[j].Size
	})
	return out
}

// Tune measures every variant of op over cfg's (np, size) grid, each in a
// fresh world so NIC contention state from one measurement cannot leak
// into the next, and returns the filled table. Costs are virtual time —
// deterministic for a given machine: every measurement world runs on the
// event engine.
func Tune(cfg Config, op Op) (*Table, error) {
	t := NewTable(cfg.Topo)
	if err := tuneInto(t, cfg, op); err != nil {
		return nil, err
	}
	return t, nil
}

// TuneAll measures every registered operation into one table.
func TuneAll(cfg Config) (*Table, error) {
	t := NewTable(cfg.Topo)
	for _, op := range Ops() {
		if err := tuneInto(t, cfg, op); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func tuneInto(t *Table, cfg Config, op Op) error {
	if cfg.Machine == nil {
		return fmt.Errorf("coll: tuning config has no machine constructor")
	}
	for _, np := range cfg.NPs {
		for _, size := range cfg.Sizes {
			for _, alg := range algorithms[op] {
				d, err := Measure(cfg, op, alg, np, size)
				if err != nil {
					return fmt.Errorf("coll: tuning %s/%s np=%d size=%d: %w", op, alg, np, size, err)
				}
				t.Set(op, np, size, alg, d)
			}
		}
	}
	return nil
}

// Measure times one (op, alg, np, size) point in a fresh world: an
// opening barrier aligns the ranks, then Reps (default 3) timed
// iterations each closed by a barrier so the rank-0 clock delta spans the
// whole collective; the median is returned.
func Measure(cfg Config, op Op, alg Algorithm, np, size int) (time.Duration, error) {
	reps := cfg.Reps
	if reps <= 0 {
		reps = 3
	}
	opts := append([]mpi.Option{mpi.WithEngine(mpi.EngineEvent)}, cfg.Opts...)
	w, err := mpi.NewWorld(cfg.Machine(np), np, opts...)
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
			if err := Run(c, op, alg, size); err != nil {
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

// WriteTSV dumps the table: op, np, size, one column per algorithm (ns),
// and the argmin pick.
func (t *Table) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# topo=%s\n# op\tnp\tsize", t.Topo); err != nil {
		return err
	}
	cols := []Algorithm{Default, RD, Ring, Rab, GB, SAG, LSAG, Binomial, Bruck}
	for _, a := range cols {
		fmt.Fprintf(w, "\t%s_ns", a)
	}
	fmt.Fprintf(w, "\tpick\n")
	for _, p := range t.Points() {
		fmt.Fprintf(w, "%s\t%d\t%d", p.Op, p.NP, p.Size)
		for _, a := range cols {
			if d, ok := t.Cost(p.Op, p.NP, p.Size, a); ok {
				fmt.Fprintf(w, "\t%d", d.Nanoseconds())
			} else {
				fmt.Fprintf(w, "\t-")
			}
		}
		if _, err := fmt.Fprintf(w, "\t%s\n", t.Pick(p.Op, p.NP, p.Size)); err != nil {
			return err
		}
	}
	return nil
}
