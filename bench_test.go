package mpimon

// The benchmark harness: one benchmark per table and figure of the paper
// (scaled-down parameters — run `go run ./cmd/exp <experiment>` for the full
// sweeps), plus ablations of the design choices called out in DESIGN.md
// and micro-benchmarks of the hot paths. Figure benchmarks report the
// reproduced quantities as custom metrics.

import (
	"errors"
	"testing"
	"time"

	"mpimon/internal/coll"
	"mpimon/internal/exp"
	"mpimon/internal/hwcount"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/pml"
	"mpimon/internal/sparsemat"
	"mpimon/internal/stencil"
	"mpimon/internal/topology"
	"mpimon/internal/treematch"
	"mpimon/internal/workloads"
)

// BenchmarkFig2HWCountersVsMonitoring regenerates Fig. 2: NIC counters vs
// introspection monitoring time series. Metrics: total KB seen by each
// observer and their maximum cumulative divergence.
func BenchmarkFig2HWCountersVsMonitoring(b *testing.B) {
	cfg := exp.DefaultHWCounters
	cfg.Duration = 4 * time.Second
	var res exp.HWCountersResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.HWCounters(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(hwcount.Total(res.HW))/1000, "hw_kb")
	b.ReportMetric(float64(hwcount.Total(res.Mon))/1000, "mon_kb")
	b.ReportMetric(float64(res.MaxLagBytes)/1000, "max_lag_kb")
}

// BenchmarkFig3Cumulative regenerates Fig. 3 (the cumulative view of the
// same series); the metric is the final cumulative divergence in KB,
// which the paper reports as "barely visible".
func BenchmarkFig3Cumulative(b *testing.B) {
	cfg := exp.DefaultHWCounters
	cfg.Duration = 4 * time.Second
	var lag float64
	for i := 0; i < b.N; i++ {
		res, err := exp.HWCounters(cfg)
		if err != nil {
			b.Fatal(err)
		}
		hw := hwcount.Cumulative(res.HW)
		mon := hwcount.Cumulative(res.Mon)
		lag = float64(hw[len(hw)-1].Bytes-mon[len(mon)-1].Bytes) / 1000
	}
	b.ReportMetric(lag, "final_divergence_kb")
}

// BenchmarkFig4Overhead regenerates Fig. 4: the monitoring overhead on a
// small reduce (real wall time). Metric: the mean difference in
// microseconds (paper: < 5 us, mostly insignificant).
func BenchmarkFig4Overhead(b *testing.B) {
	cfg := exp.OverheadConfig{NPs: []int{48}, Sizes: []int{1024}, Reps: 60}
	var diff float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Overhead(cfg)
		if err != nil {
			b.Fatal(err)
		}
		diff = rows[0].Welch.Diff
	}
	b.ReportMetric(diff, "overhead_us")
}

// benchCollOpt shares Fig. 5a/5b: metric is the baseline-over-reordered
// speedup of the collective at a large buffer size.
func benchCollOpt(b *testing.B, op string) {
	cfg := exp.CollOptConfig{Op: op, NPs: []int{48}, BufSizes: []int{20000}, Reps: 3}
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.CollectiveOpt(cfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup = rows[0].NoMonMs / rows[0].ReorderMs
	}
	b.ReportMetric(speedup, "speedup_x")
}

// BenchmarkFig5Reduce regenerates Fig. 5a (binary-tree reduce).
func BenchmarkFig5Reduce(b *testing.B) { benchCollOpt(b, "reduce") }

// BenchmarkFig5Bcast regenerates Fig. 5b (binomial-tree broadcast).
func BenchmarkFig5Bcast(b *testing.B) { benchCollOpt(b, "bcast") }

// BenchmarkFig6ReorderGain regenerates two opposite corners of the Fig. 6
// heat map: a small/short cell where the reordering cannot pay off
// (negative gain) and a large/long cell where it clearly does.
func BenchmarkFig6ReorderGain(b *testing.B) {
	cfg := exp.HeatmapConfig{NPs: []int{48}, BufSizes: []int{10, 50000}, Iters: []int{1, 100}}
	var worst, best float64
	for i := 0; i < b.N; i++ {
		cells, err := exp.ReorderHeatmap(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst, best = cells[0].GainPct, cells[0].GainPct
		for _, c := range cells {
			if c.GainPct < worst {
				worst = c.GainPct
			}
			if c.GainPct > best {
				best = c.GainPct
			}
		}
	}
	b.ReportMetric(best, "best_gain_pct")
	b.ReportMetric(worst, "worst_gain_pct")
}

// BenchmarkFig7CG regenerates one bar of Fig. 7: NAS CG class B on 64
// ranks, round-robin mapping. Metrics: the execution-time and
// communication-time ratios (paper: all > 1, comm up to 1.9).
func BenchmarkFig7CG(b *testing.B) {
	cfg := exp.CGConfig{Classes: []string{"B"}, NPs: []int{64}, Mappings: []string{"rr"}, Niter: 2, Seed: 42}
	var row exp.CGRow
	for i := 0; i < b.N; i++ {
		rows, err := exp.CGReorder(cfg)
		if err != nil {
			b.Fatal(err)
		}
		row = rows[0]
	}
	b.ReportMetric(row.TotalRatio, "total_ratio")
	b.ReportMetric(row.CommRatio, "comm_ratio")
}

// BenchmarkTable1TreeMatchScale regenerates Table 1 at reduced orders
// (cmd/exp treematch-scale runs the full 8192-65536 sweep). Orders up to
// 4096 refine every part pair in full; 16384 (512 parts) exceeds the swap
// budget and takes the capped heaviest-pairs refinement, as every order of
// the full sweep does. fromview/65536 times the matrix build from the
// sparse gathered view of the largest order.
func BenchmarkTable1TreeMatchScale(b *testing.B) {
	for _, order := range []int{1024, 2048, 4096, 16384} {
		b.Run(itoa(order), func(b *testing.B) {
			m := workloads.ClusteredSparse(order, 32, 1000, 1, 7)
			topo := topology.MustNew(order/32, 2, 16)
			tree := topo.FullTree()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := treematch.MapTree(m, tree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("fromview/65536", func(b *testing.B) {
		sm := upperView(workloads.ClusteredSparse(65536, 32, 1000, 1, 7))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := treematch.FromView(sm); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// upperView turns a symmetric affinity matrix into the sparse bytes matrix
// whose pairwise sums are those affinities, each pair's weight travelling in
// the lower-to-higher direction: the gathered view a monitored world of that
// traffic would hand to treematch.FromView.
func upperView(m *treematch.Matrix) *sparsemat.Matrix {
	sm := sparsemat.New(m.N())
	for i := 0; i < m.N(); i++ {
		var row sparsemat.Row
		for _, e := range m.Row(i) {
			if e.Col > i {
				row.Dst = append(row.Dst, int32(e.Col))
				row.Cnt = append(row.Cnt, 1)
				row.Byt = append(row.Byt, uint64(e.W))
			}
		}
		sm.Rows[i] = row
	}
	return sm
}

// BenchmarkGatherSparse measures the sparse monitoring gathers on stencil
// skeleton worlds of growing size (np = 4096 is the issue's 64x64 grid).
// Metrics: sparse rootgather wire bytes, root peak receive buffer, and
// their ratio below the 16n² bytes the dense path moves.
func BenchmarkGatherSparse(b *testing.B) {
	for _, np := range []int{256, 1024, 4096} {
		b.Run("np"+itoa(np), func(b *testing.B) {
			cfg := exp.DefaultGatherScale
			cfg.NPs = []int{np}
			cfg.Iters = 3
			var row exp.GatherRow
			for i := 0; i < b.N; i++ {
				rows, err := exp.GatherScale(cfg)
				if err != nil {
					b.Fatal(err)
				}
				row = rows[0]
			}
			b.ReportMetric(float64(row.RootWireBytes), "root_wire_B")
			b.ReportMetric(float64(row.RootPeakBytes), "root_peak_B")
			b.ReportMetric(row.RootWireRatio, "dense_over_sparse")
		})
	}
}

// BenchmarkEventEngine measures the discrete-event execution engine on
// monitored stencil worlds up to np = 65536 (the issue's 256x256 grid).
// Metrics: scheduler dispatches, dispatches per second of host time, and
// the live heap with the whole world reachable. The TreeMatch mapping is
// skipped (see BenchmarkTable1TreeMatchScale); cmd/exp engine-scale runs
// the full pipeline.
func BenchmarkEventEngine(b *testing.B) {
	for _, np := range []int{4096, 16384, 65536} {
		b.Run("event/np"+itoa(np), func(b *testing.B) {
			var row exp.EngineRow
			for i := 0; i < b.N; i++ {
				var err error
				_, row, err = exp.StencilWorldSparse(np, 3, 4096)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(row.Events), "events")
			b.ReportMetric(row.EventsPerSec, "events_per_s")
			b.ReportMetric(row.HeapMB, "heap_MB")
		})
	}
}

// BenchmarkAbortUnwind measures how long a failing world takes to wind
// down: every rank but the last parks in a receive nobody will satisfy, the
// last returns an error, and the abort has to resume and unwind the np-1
// parked ranks. Linear in np (ROADMAP item 1: it was quadratic twice over).
func BenchmarkAbortUnwind(b *testing.B) {
	injected := errors.New("injected failure")
	for _, np := range []int{16384, 65536} {
		b.Run("np"+itoa(np), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w, err := exp.PlaFRIMWorld(np, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var failedAt time.Time
				err = w.Run(func(c *mpi.Comm) error {
					if c.Rank() == np-1 {
						failedAt = time.Now()
						return injected
					}
					_, err := c.Recv(np-1, 0, nil)
					return err
				})
				unwind := time.Since(failedAt)
				if !errors.Is(err, injected) {
					b.Fatalf("Run returned %v, want the injected error", err)
				}
				// ns/op is the whole Run, starting np coroutines included;
				// this is the part after the failure.
				b.ReportMetric(float64(unwind.Microseconds())/1e3, "unwind_ms")
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationNoContention disables NIC serialization and re-runs the
// Fig. 6 best cell: without contention, co-locating groups is worth much
// less — the metric shows how much of the gain the contention model
// carries.
func BenchmarkAblationNoContention(b *testing.B) {
	measure := func(contention bool) float64 {
		const np, groups, bytes, iters = 48, 2, 200_000, 10
		mach := netsim.PlaFRIM(2)
		mach.Contention = contention
		rr, err := treematch.PlacementRoundRobin(np, mach.Topo)
		if err != nil {
			b.Fatal(err)
		}
		runIt := func(placement []int) time.Duration {
			w, err := mpi.NewWorld(mach2(mach), np, mpi.WithPlacement(placement))
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Run(func(c *mpi.Comm) error {
				groupSize := c.Size() / groups
				sub, err := c.Split(c.Rank()/groupSize, c.Rank())
				if err != nil {
					return err
				}
				for i := 0; i < iters; i++ {
					if err := sub.AllgatherN(bytes); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			return w.MaxClock()
		}
		spread := runIt(rr)
		packed := runIt(treematch.PlacementPacked(np))
		return float64(spread) / float64(packed)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = measure(true)
		without = measure(false)
	}
	b.ReportMetric(with, "colocate_speedup_with_contention")
	b.ReportMetric(without, "colocate_speedup_without_contention")
}

// mach2 clones a machine so each world gets fresh NIC state.
func mach2(m *netsim.Machine) *netsim.Machine {
	c := *m
	return &c
}

// BenchmarkAblationAPILevelMonitoring contrasts the paper's central
// feature: a PMPI-style tool sees a broadcast as root-to-everyone (or
// nothing at all below the API), while the pml-level monitoring sees the
// real tree. The metric is the placement cost of reordering with each
// matrix — the decomposed matrix yields the better placement.
func BenchmarkAblationAPILevelMonitoring(b *testing.B) {
	const np = 48
	mach := netsim.PlaFRIM(2)
	topo := mach.Topo
	rr, err := treematch.PlacementRoundRobin(np, topo)
	if err != nil {
		b.Fatal(err)
	}
	// The true pattern of a binomial bcast (what pml monitoring sees).
	truth := treematch.NewMatrix(np)
	vrank := func(r int) int { return r }
	for r := 1; r < np; r++ {
		// parent of r in the binomial tree rooted at 0
		v := vrank(r)
		mask := 1
		for mask <= v {
			mask <<= 1
		}
		mask >>= 1
		truth.Add(r, v&^mask, 1e6)
	}
	truth.Finish()
	// The API-level view: root sent one buffer "to the communicator";
	// the best a PMPI tool can attribute is root -> every rank.
	apiView := treematch.NewMatrix(np)
	for r := 1; r < np; r++ {
		apiView.Add(0, r, 1e6)
	}
	apiView.Finish()

	var costDecomposed, costAPI float64
	for i := 0; i < b.N; i++ {
		place := func(m *treematch.Matrix) []int {
			coreOf, err := treematch.MapTree(m, topo.FullTree())
			if err != nil {
				b.Fatal(err)
			}
			return coreOf
		}
		// Evaluate both placements against the TRUE pattern.
		costDecomposed = treematch.Cost(truth, place(truth), topo)
		costAPI = treematch.Cost(truth, place(apiView), topo)
	}
	base := treematch.Cost(truth, rr, topo)
	b.ReportMetric(costDecomposed/base, "cost_frac_decomposed")
	b.ReportMetric(costAPI/base, "cost_frac_api_level")
}

// BenchmarkAblationReduceAlgorithms compares the two reduce trees in
// virtual time (the paper's Fig. 5a uses the binary tree).
func BenchmarkAblationReduceAlgorithms(b *testing.B) {
	run := func(binomial bool) time.Duration {
		const np = 48
		mach := netsim.PlaFRIM(2)
		w, err := mpi.NewWorld(mach, np)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(func(c *mpi.Comm) error {
			send := make([]byte, 1<<20)
			var recv []byte
			if c.Rank() == 0 {
				recv = make([]byte, len(send))
			}
			if binomial {
				return c.ReduceBinomial(send, recv, mpi.Byte, mpi.OpMax, 0)
			}
			return c.Reduce(send, recv, mpi.Byte, mpi.OpMax, 0)
		}); err != nil {
			b.Fatal(err)
		}
		return w.MaxClock()
	}
	var bin, binom time.Duration
	for i := 0; i < b.N; i++ {
		bin = run(false)
		binom = run(true)
	}
	b.ReportMetric(float64(bin)/1e6, "binary_ms")
	b.ReportMetric(float64(binom)/1e6, "binomial_ms")
}

// --- Micro-benchmarks of the hot paths -----------------------------------

// BenchmarkMonitorRecord measures the per-message cost of the pml
// monitoring counter update — the source of the Fig. 4 overhead.
func BenchmarkMonitorRecord(b *testing.B) {
	mon := pml.NewMonitor(256, pml.Distinct)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mon.Record(pml.P2P, i&255, 4096, int64(i))
	}
}

// BenchmarkMonitorRecordDisabled measures the disabled-path cost.
func BenchmarkMonitorRecordDisabled(b *testing.B) {
	mon := pml.NewMonitor(256, pml.Disabled)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mon.Record(pml.P2P, i&255, 4096, int64(i))
	}
}

// BenchmarkPingPong measures the real (host) cost of one simulated
// message round trip, queue and cost model included.
func BenchmarkPingPong(b *testing.B) {
	mach := netsim.PlaFRIM(1)
	w, err := mpi.NewWorld(mach, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = w.Run(func(c *mpi.Comm) error {
		buf := make([]byte, 64)
		other := 1 - c.Rank()
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				if err := c.Send(other, 0, buf); err != nil {
					return err
				}
				if _, err := c.Recv(other, 0, buf); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(other, 0, buf); err != nil {
					return err
				}
				if err := c.Send(other, 0, buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCollectives measures the host cost and steady-state allocations
// of one collective round on 48 simulated ranks. The internal payloads of
// the tree/ring algorithms ride the pooled message buffers, so allocs/op
// here is the pool-miss rate of the collective layer.
func BenchmarkCollectives(b *testing.B) {
	const np = 48
	bench := func(b *testing.B, setup func(c *mpi.Comm) func() error) {
		w, err := mpi.NewWorld(netsim.PlaFRIM(2), np)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		if err := w.Run(func(c *mpi.Comm) error {
			iter := setup(c)
			for i := 0; i < b.N; i++ {
				if err := iter(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("bcast-64KiB", func(b *testing.B) {
		bench(b, func(c *mpi.Comm) func() error {
			buf := make([]byte, 1<<16)
			return func() error { return c.Bcast(buf, 0) }
		})
	})
	b.Run("allreduce-8KiB", func(b *testing.B) {
		bench(b, func(c *mpi.Comm) func() error {
			send := make([]byte, 1<<13)
			recv := make([]byte, 1<<13)
			return func() error { return c.Allreduce(send, recv, mpi.Byte, mpi.OpMax) }
		})
	})
	b.Run("alltoall-1KiB", func(b *testing.B) {
		bench(b, func(c *mpi.Comm) func() error {
			send := make([]byte, np<<10)
			recv := make([]byte, np<<10)
			return func() error { return c.Alltoall(send, recv) }
		})
	})
}

// BenchmarkCGClassSReal measures a full verified class-S NAS CG run on 16
// simulated ranks (real numerics).
func BenchmarkCGClassSReal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(PlaFRIM(1), 16)
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(c *Comm) error {
			res, err := RunCG(c, CGConfig{Class: CGClassS, Mode: CGReal})
			if err != nil {
				return err
			}
			if !res.Verified {
				b.Error("class S did not verify")
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeMatch measures the mapping time on a mid-size matrix.
func BenchmarkTreeMatch(b *testing.B) {
	m := workloads.Clustered(384, 24, 1000, 1, 2, 3)
	topo := topology.MustNew(16, 2, 12)
	tree := topo.FullTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := treematch.MapTree(m, tree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBarrier48 measures the host cost of a 48-rank dissemination
// barrier in the simulated runtime.
func BenchmarkBarrier48(b *testing.B) {
	w, err := mpi.NewWorld(netsim.PlaFRIM(2), 48)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = w.Run(func(c *mpi.Comm) error {
		for i := 0; i < b.N; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStencilSolve measures the host cost of the distributed Jacobi
// solver (48 simulated ranks, 10 sweeps).
func BenchmarkStencilSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(PlaFRIM(2), 48)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(func(c *Comm) error {
			_, err := RunStencil(c, StencilConfig{NX: 96, NY: 1024, Iters: 10})
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBcastAlgorithms compares the binomial and the
// scatter-allgather broadcasts in virtual time at a large message size:
// SAG should win on bandwidth.
func BenchmarkAblationBcastAlgorithms(b *testing.B) {
	runOne := func(sag bool) time.Duration {
		w, err := mpi.NewWorld(netsim.PlaFRIM(2), 48)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(func(c *mpi.Comm) error {
			buf := make([]byte, 48<<14) // 768 KiB, divisible by 48
			if sag {
				return c.BcastSAG(buf, 0)
			}
			return c.Bcast(buf, 0)
		}); err != nil {
			b.Fatal(err)
		}
		return w.MaxClock()
	}
	var binom, sag time.Duration
	for i := 0; i < b.N; i++ {
		binom = runOne(false)
		sag = runOne(true)
	}
	b.ReportMetric(float64(binom)/1e6, "binomial_ms")
	b.ReportMetric(float64(sag)/1e6, "scatter_allgather_ms")
}

// BenchmarkStencil2DReorder measures the 2D-decomposed Jacobi solver with
// and without the Cartesian reorder flag on a scrambled placement; the
// metric is the communication-time ratio (the MPI_Cart_create(reorder)
// payoff, powered by TreeMatch).
func BenchmarkStencil2DReorder(b *testing.B) {
	const np = 48
	mach := netsim.PlaFRIM(2)
	place := make([]int, np)
	for i := range place {
		place[i] = (i * 19) % 48
	}
	measure := func(reorder bool) time.Duration {
		w, err := mpi.NewWorld(mach2(mach), np, mpi.WithPlacement(place))
		if err != nil {
			b.Fatal(err)
		}
		var comm time.Duration
		if err := w.Run(func(c *mpi.Comm) error {
			res, err := stencil.Run2D(c, stencil.Config{NX: 96, NY: 4096, Iters: 10}, reorder)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				comm = res.CommTime
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		return comm
	}
	var base, opt time.Duration
	for i := 0; i < b.N; i++ {
		base = measure(false)
		opt = measure(true)
	}
	b.ReportMetric(float64(base)/float64(opt), "comm_ratio")
}

// BenchmarkCollPortfolio measures every algorithm of the collective
// portfolio at np=48 on the paper's cluster model — one sub-benchmark per
// (operation, algorithm), reporting the virtual collective time as a
// custom metric so results/BENCH_coll.json tracks the simulated cost next
// to the harness's wall time.
func BenchmarkCollPortfolio(b *testing.B) {
	const np = 48
	const size = 96 << 10 // straddles the eager limit; divisible by np
	for _, op := range coll.Ops() {
		for _, alg := range coll.Algorithms(op) {
			op, alg := op, alg
			b.Run(string(op)+"-"+string(alg), func(b *testing.B) {
				w, err := mpi.NewWorld(netsim.PlaFRIM(2), np)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				if err := w.Run(func(c *mpi.Comm) error {
					for i := 0; i < b.N; i++ {
						if err := coll.Run(c, op, alg, size); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(w.MaxClock().Nanoseconds())/float64(b.N)/1000, "virt_us/op")
			})
		}
	}
}
