package coll

import (
	"fmt"
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
	Machine func(np int) *netsim.Machine // fresh machine per measurement world
	NPs     []int                        // rank counts to measure
	Sizes   []int                        // total payload bytes per collective
	Reps    int                          // timed repetitions per point (at least 1)
	Opts    []mpi.Option                 // extra world options (telemetry, ...)
}

// Point is one measured (operation, rank count, total payload bytes).
type Point struct {
	Op   Op
	NP   int
	Size int
}

// Table holds measured virtual costs per point and algorithm, as Tune
// fills it.
type Table struct {
	costs map[Point]map[Algorithm]time.Duration
}

func (t *Table) set(p Point, alg Algorithm, d time.Duration) {
	if t.costs == nil {
		t.costs = make(map[Point]map[Algorithm]time.Duration)
	}
	m := t.costs[p]
	if m == nil {
		m = make(map[Algorithm]time.Duration)
		t.costs[p] = m
	}
	m[alg] = d
}

// Cost returns the measured cost of one algorithm at a measured point.
func (t *Table) Cost(p Point, alg Algorithm) (time.Duration, bool) {
	d, ok := t.costs[p][alg]
	return d, ok
}

// Pick returns the cheapest algorithm measured at the point, or Default
// when the point was never measured.
func (t *Table) Pick(p Point) Algorithm {
	best := Default
	bestD := time.Duration(math.MaxInt64)
	// Iterate the registry order, not the map, so ties resolve
	// deterministically in favor of the default.
	for _, alg := range algorithms[p.Op] {
		if d, ok := t.costs[p][alg]; ok && d < bestD {
			best, bestD = alg, d
		}
	}
	return best
}

// Points returns the measured grid in stable order.
func (t *Table) Points() []Point {
	out := make([]Point, 0, len(t.costs))
	for p := range t.costs {
		out = append(out, p)
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
// deterministic for a given machine.
func Tune(cfg Config, op Op) (*Table, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("coll: tuning config has no machine constructor")
	}
	t := &Table{}
	for _, np := range cfg.NPs {
		for _, size := range cfg.Sizes {
			for _, alg := range algorithms[op] {
				d, err := Measure(cfg.Machine(np), np, cfg.Reps, cfg.Opts, func(c *mpi.Comm) error {
					return Run(c, op, alg, size)
				})
				if err != nil {
					return nil, fmt.Errorf("coll: tuning %s/%s np=%d size=%d: %w", op, alg, np, size, err)
				}
				t.set(Point{op, np, size}, alg, d)
			}
		}
	}
	return t, nil
}

// Measure times kernel in a fresh np-rank world on mach, built on the
// event engine with opts: an opening barrier aligns the ranks, then reps
// timed iterations each closed by a barrier, so the rank-0 clock delta
// spans the whole kernel; the upper median is returned. reps < 1 is an
// error. A fresh world per call keeps measurements order-independent.
func Measure(mach *netsim.Machine, np, reps int, opts []mpi.Option, kernel func(c *mpi.Comm) error) (time.Duration, error) {
	if reps < 1 {
		return 0, fmt.Errorf("coll: measurement needs reps >= 1 for a median, got %d", reps)
	}
	w, err := mpi.NewWorld(mach, np, append([]mpi.Option{mpi.WithEngine(mpi.EngineEvent)}, opts...)...)
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
			if err := kernel(c); err != nil {
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
