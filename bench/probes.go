package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"mpimon/internal/commitagg"
	"mpimon/internal/monitoring"
	"mpimon/internal/monsvc"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/pml"
	"mpimon/internal/sparsemat"
	"mpimon/internal/telemetry"
	"mpimon/internal/treematch"
)

// The layer probes of the traced run: direct timed calls into each layer's
// public functions, and ping-pong ablations that switch one existing option
// at a time. Every probe measures from outside the layer; none is gated.

// metricDef is one metric as BENCHMARK.json spells it: name, unit and which
// direction is better.
type metricDef struct {
	name, unit string
	better     string // "lower" or "higher"
}

// layerMetrics is every per-layer metric a traced run prints, in print order.
var layerMetrics = []metricDef{
	{"mpi.pingpong_ns", "ns", "lower"},
	{"mpi.allocs_per_msg", "count", "lower"},
	{"mpi.bytes_per_msg", "B", "lower"},
	{"mpi.barrier48_us", "us", "lower"},
	{"mpi.bcast64k_us", "us", "lower"},
	{"mpi.allreduce8k_us", "us", "lower"},
	{"mpi.alltoall1k_us", "us", "lower"},
	{"mpi.reduce128k_us", "us", "lower"},
	{"mpi.coll_allocs_per_round", "count", "lower"},
	{"mpi.coll_bytes_per_round", "B", "lower"},
	{"mpi.newworld_us_per_rank", "us", "lower"},
	{"mpi.newworld_bytes_per_rank", "B", "lower"},
	{"mpi.newworld_allocs_per_rank", "count", "lower"},
	{"mpi.run_empty_us_per_rank", "us", "lower"},
	{"mpi.split_us", "us", "lower"},
	{"engine.pingpong_goroutine_ns", "ns", "lower"},
	{"engine.pingpong_event_ns", "ns", "lower"},
	{"engine.handoff_gap_ns", "ns", "lower"},
	{"engine.halo_event_msgs_per_s", "1/s", "higher"},
	{"engine.events_per_rank", "count", "lower"},
	{"engine.dispatch_us", "us", "lower"},
	{"netsim.transfer_inter_ns", "ns", "lower"},
	{"netsim.transfer_intra_ns", "ns", "lower"},
	{"netsim.contention_per_msg_ns", "ns", "lower"},
	{"netsim.newnetwork_ms", "ms", "lower"},
	{"netsim.virt_us_per_unit", "us", "lower"},
	{"netsim.virt_spread_frac", "ratio", "lower"},
	{"pml.record_ns", "ns", "lower"},
	{"pml.record_disabled_ns", "ns", "lower"},
	{"pml.per_msg_ns", "ns", "lower"},
	{"pml.newmonitor_bytes_n2304", "B", "lower"},
	{"pml.touched_ns", "ns", "lower"},
	{"monitoring.init_start_us_per_rank", "us", "lower"},
	{"monitoring.suspend_us_per_rank", "us", "lower"},
	{"monitoring.rootgather_sparse_ms", "ms", "lower"},
	{"monitoring.rootgather_wire_bytes", "B", "lower"},
	{"monitoring.export_ns_per_row", "ns", "lower"},
	{"sparsemat.append_row_ns", "ns", "lower"},
	{"sparsemat.decode_row_ns", "ns", "lower"},
	{"sparsemat.bytes_per_row", "B", "lower"},
	{"telemetry.per_msg_ns", "ns", "lower"},
	{"telemetry.counter_add_ns", "ns", "lower"},
	{"commitagg.add_ns", "ns", "lower"},
	{"commitagg.updates_per_fold", "ratio", "higher"},
	{"monsvc.ingest_direct_rows_per_s", "1/s", "higher"},
	{"monsvc.ingest_http_rows_per_s", "1/s", "higher"},
	{"monsvc.frame_decode_us", "us", "lower"},
	{"monsvc.view_cumulative_us", "us", "lower"},
	{"monsvc.rejected_rows", "count", "lower"},
	{"treematch.fromview_ms_65536", "ms", "lower"},
	{"treematch.maptree_ms_16384", "ms", "lower"},
	{"treematch.maptree_ms_32768", "ms", "lower"},
	{"treematch.maptree_ms_65536", "ms", "lower"},
	{"treematch.maptree_allocs_65536", "count", "lower"},
	{"treematch.cost_frac_vs_rr_65536", "ratio", "lower"},
	{"treematch.refine_degraded", "count", "lower"},
	{"topology.fulltree_ms", "ms", "lower"},
	{"reorder.compute_mapping_us", "us", "lower"},
	{"reorder.placement_cost_ratio", "ratio", "lower"},
	{"reorder.virt_gain_x", "ratio", "higher"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.stage_cover_frac", "ratio", "higher"},
}

// timeOp returns the median ns per call of fn over three batches, each
// long enough to take at least min.
func timeOp(min time.Duration, fn func()) float64 {
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(t0)
	}
	n := 1
	for batch(n) < min && n < 1<<30 {
		n *= 2
	}
	per := make([]float64, 3)
	for i := range per {
		per[i] = float64(batch(n)) / float64(n)
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// runProbes measures every probe-backed per-layer metric.
func runProbes(p *params, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, probe := range []func(*params, int64, map[string]float64) error{
		probePingPong, probeCollectives, probeWorld, probeNetsim, probePml, probeMonitoring,
		probeCodecs, probeMonsvc, probeTreeMatch, probeEventHalo, probeReorder,
	} {
		if err := probe(p, seed, out); err != nil {
			return nil, err
		}
		releaseHeap()
	}
	return out, nil
}

// ppConfig is one ping-pong ablation: two ranks on two nodes exchanging 64
// bytes, with one layer switched relative to the base (monitor disabled,
// telemetry nil, contention off, goroutine engine).
type ppConfig struct {
	level      pml.Level
	hub        bool
	contention bool
	engine     string
}

type ppResult struct {
	nsPerRoundTrip, allocsPerMsg, bytesPerMsg, updatesPerFold float64
}

func pingPong(roundTrips int, cfg ppConfig) (ppResult, error) {
	mach := netsim.PlaFRIM(2)
	mach.Contention = cfg.contention
	var hub *telemetry.Telemetry
	if cfg.hub {
		hub = telemetry.New()
	}
	w, err := mpi.NewWorld(mach, 2, mpi.WithPlacement([]int{0, 24}), mpi.WithMonitoringLevel(cfg.level),
		mpi.WithTelemetry(hub), engine(cfg.engine))
	if err != nil {
		return ppResult{}, err
	}
	var res ppResult
	err = w.Run(func(c *mpi.Comm) error {
		const tag = 11
		buf := make([]byte, 64)
		peer := 1 - c.Rank()
		exchange := func(n int) error {
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					if err := c.Send(peer, tag, buf); err != nil {
						return err
					}
				}
				if _, err := c.Recv(peer, tag, buf); err != nil {
					return err
				}
				if c.Rank() == 1 {
					if err := c.Send(peer, tag, buf); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if err := exchange(roundTrips/10 + 1); err != nil { // warm-up
			return err
		}
		if c.Rank() != 0 {
			return exchange(roundTrips)
		}
		var inner error
		var wall time.Duration
		allocs, bytes := allocDelta(func() {
			t0 := time.Now()
			inner = exchange(roundTrips)
			wall = time.Since(t0)
		})
		msgs := float64(2 * roundTrips)
		res = ppResult{nsPerRoundTrip: float64(wall) / float64(roundTrips), allocsPerMsg: allocs / msgs, bytesPerMsg: bytes / msgs}
		return inner
	})
	res.updatesPerFold = w.TelemetryAggStats().UpdatesPerFold()
	return res, err
}

func probePingPong(p *params, _ int64, out map[string]float64) error {
	n := p.Probe.PingPongs
	run := func(cfg ppConfig) (ppResult, error) { return pingPong(n, cfg) }
	base, err := run(ppConfig{level: pml.Disabled, engine: "goroutine"})
	if err != nil {
		return err
	}
	event, err := run(ppConfig{level: pml.Disabled, engine: "event"})
	if err != nil {
		return err
	}
	monitored, err := run(ppConfig{level: pml.Distinct, engine: "goroutine"})
	if err != nil {
		return err
	}
	withHub, err := run(ppConfig{level: pml.Distinct, hub: true, engine: "goroutine"})
	if err != nil {
		return err
	}
	contended, err := run(ppConfig{level: pml.Disabled, contention: true, engine: "goroutine"})
	if err != nil {
		return err
	}
	deflt, err := run(ppConfig{level: pml.Distinct, contention: true, engine: "auto"})
	if err != nil {
		return err
	}
	out["engine.pingpong_goroutine_ns"] = base.nsPerRoundTrip
	out["engine.pingpong_event_ns"] = event.nsPerRoundTrip
	out["engine.handoff_gap_ns"] = event.nsPerRoundTrip - base.nsPerRoundTrip
	// A round trip is two messages.
	out["pml.per_msg_ns"] = (monitored.nsPerRoundTrip - base.nsPerRoundTrip) / 2
	out["telemetry.per_msg_ns"] = (withHub.nsPerRoundTrip - monitored.nsPerRoundTrip) / 2
	out["commitagg.updates_per_fold"] = withHub.updatesPerFold
	out["netsim.contention_per_msg_ns"] = (contended.nsPerRoundTrip - base.nsPerRoundTrip) / 2
	out["mpi.pingpong_ns"] = deflt.nsPerRoundTrip
	out["mpi.allocs_per_msg"] = deflt.allocsPerMsg
	out["mpi.bytes_per_msg"] = deflt.bytesPerMsg
	return nil
}

// timeColl times n back-to-back calls of op between two barriers and returns
// µs per call on rank 0's host clock (other ranks get zero).
func timeColl(c *mpi.Comm, n int, op func() error) (float64, error) {
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	if err := c.Barrier(); err != nil {
		return 0, err
	}
	if c.Rank() != 0 {
		return 0, nil
	}
	return us(time.Since(t0)) / float64(n), nil
}

func probeCollectives(p *params, seed int64, out map[string]float64) error {
	cp, n := p.Coll, p.Probe.CollRounds
	np := cp.Nodes * 24
	in := newCollInputs(seed, cp, np)
	w, err := mpi.NewWorld(netsim.PlaFRIM(cp.Nodes), np, engine("event"))
	if err != nil {
		return err
	}
	err = w.Run(func(c *mpi.Comm) error {
		b := in.buffers(c.Rank())
		st := &stages{}
		if _, err := in.round(c, st, b); err != nil { // warm-up
			return err
		}
		ops := []struct {
			name string
			op   func() error
		}{
			{"mpi.bcast64k_us", func() error { return c.Bcast(b.bcast, 0) }},
			{"mpi.allreduce8k_us", func() error { return c.Allreduce(b.arSend, b.arRecv, mpi.Byte, mpi.OpMax) }},
			{"mpi.alltoall1k_us", func() error { return c.Alltoall(b.a2aSend, b.a2aRecv) }},
			{"mpi.reduce128k_us", func() error { return c.Reduce(b.redSend, b.redRecv, mpi.Uint64, mpi.OpSum, 0) }},
		}
		for _, o := range ops {
			v, err := timeColl(c, n, o.op)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				out[o.name] = v
			}
		}
		// Allocation per round, read by rank 0 between barriers: the event
		// engine runs one rank at a time, so the delta is the world's.
		if err := c.Barrier(); err != nil {
			return err
		}
		var inner error
		rounds := func() {
			for i := 0; i < n && inner == nil; i++ {
				_, inner = in.round(c, st, b)
			}
			if inner == nil {
				inner = c.Barrier()
			}
		}
		if c.Rank() != 0 {
			rounds()
			return inner
		}
		allocs, bytes := allocDelta(rounds)
		out["mpi.coll_allocs_per_round"] = allocs / float64(n)
		out["mpi.coll_bytes_per_round"] = bytes / float64(n)
		return inner
	})
	if err != nil {
		return err
	}
	// Barrier on the default engine, the paper's 48 ranks.
	w, err = mpi.NewWorld(netsim.PlaFRIM(2), 48)
	if err != nil {
		return err
	}
	return w.Run(func(c *mpi.Comm) error {
		v, err := timeColl(c, 25*n, c.Barrier)
		if c.Rank() == 0 {
			out["mpi.barrier48_us"] = v
		}
		return err
	})
}

func probeWorld(p *params, _ int64, out map[string]float64) error {
	np := p.Probe.WorldNP
	mach := plafrim(np)
	var w *mpi.World
	var err error
	var wall time.Duration
	allocs, bytes := allocDelta(func() {
		t0 := time.Now()
		w, err = mpi.NewWorld(mach, np)
		wall = time.Since(t0)
	})
	if err != nil {
		return err
	}
	out["mpi.newworld_us_per_rank"] = us(wall) / float64(np)
	out["mpi.newworld_allocs_per_rank"] = allocs / float64(np)
	out["mpi.newworld_bytes_per_rank"] = bytes / float64(np)
	t0 := time.Now()
	if err := w.Run(func(*mpi.Comm) error { return nil }); err != nil {
		return err
	}
	out["mpi.run_empty_us_per_rank"] = us(time.Since(t0)) / float64(np)

	// Split into the reorder-loop's groups, on its world.
	np = p.Reorder.Nodes * 24
	if w, err = mpi.NewWorld(netsim.PlaFRIM(p.Reorder.Nodes), np, engine("event")); err != nil {
		return err
	}
	return w.Run(func(c *mpi.Comm) error {
		v, err := timeColl(c, 4, func() error {
			_, err := c.Split(c.Rank()/24, c.Rank())
			return err
		})
		if c.Rank() == 0 {
			out["mpi.split_us"] = v
		}
		return err
	})
}

func probeNetsim(p *params, _ int64, out map[string]float64) error {
	t0 := time.Now()
	if _, err := netsim.NewNetwork(plafrim(p.Probe.WorldNP)); err != nil {
		return err
	}
	out["netsim.newnetwork_ms"] = ms(time.Since(t0))
	net, err := netsim.NewNetwork(netsim.PlaFRIM(2))
	if err != nil {
		return err
	}
	now := int64(0)
	out["netsim.transfer_inter_ns"] = timeOp(p.Probe.MinOpTime, func() { now += 1000; net.Transfer(0, 24, 4096, now) })
	out["netsim.transfer_intra_ns"] = timeOp(p.Probe.MinOpTime, func() { now += 1000; net.Transfer(0, 1, 4096, now) })
	return nil
}

func probePml(p *params, _ int64, out map[string]float64) error {
	n := p.Halo.GX * p.Halo.GX
	var m *pml.Monitor
	_, bytes := allocDelta(func() { m = pml.NewMonitor(n, pml.Distinct) })
	out["pml.newmonitor_bytes_n2304"] = bytes
	i := 0
	record := func(m *pml.Monitor) func() {
		return func() { i++; m.Record(pml.P2P, i&3, 4096, int64(i)) }
	}
	out["pml.record_ns"] = timeOp(p.Probe.MinOpTime, record(m))
	out["pml.record_disabled_ns"] = timeOp(p.Probe.MinOpTime, record(pml.NewMonitor(n, pml.Disabled)))
	out["pml.touched_ns"] = timeOp(p.Probe.MinOpTime, func() { m.Touched(pml.P2P) })
	return nil
}

func probeMonitoring(p *params, _ int64, out map[string]float64) error {
	gx := p.Probe.MonitorGX
	np := gx * gx
	w, err := mpi.NewWorld(plafrim(np), np)
	if err != nil {
		return err
	}
	err = w.Run(func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		var s *monitoring.Session
		var sm *sparsemat.Matrix
		start, err := timeColl(c, 1, func() (err error) {
			s, err = env.Start(c)
			return err
		})
		if err != nil {
			return err
		}
		if err := halo(c, gx, 3, p.Halo.MsgBytes); err != nil {
			return err
		}
		suspend, err := timeColl(c, 1, s.Suspend)
		if err != nil {
			return err
		}
		gather, err := timeColl(c, 1, func() (err error) {
			sm, err = s.RootgatherSparse(0, monitoring.AllComm)
			return err
		})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out["monitoring.init_start_us_per_rank"] = start / float64(np)
			out["monitoring.suspend_us_per_rank"] = suspend / float64(np)
			out["monitoring.rootgather_sparse_ms"] = gather / 1e3
			out["monitoring.rootgather_wire_bytes"] = float64(sm.WireBytes())
		}
		return env.Finalize()
	})
	if err != nil {
		return err
	}
	batch := monitoring.NewBatchingRowExporter(
		func(uint64, int, []int, []sparsemat.Row) error { return nil },
		commitagg.Policy{Threshold: p.Probe.FrameRows, IntervalNs: -1})
	row := stencilRow(gx*gx/2+gx/2, gx)
	i := 0
	out["monitoring.export_ns_per_row"] = timeOp(p.Probe.MinOpTime, func() {
		// Errors cannot occur: the sink above never fails.
		_ = batch.Export(uint64(i/p.Probe.FrameRows), i%p.Probe.FrameRows, np, row)
		i++
	})
	return nil
}

// stencilRow is the sparse row an interior rank of a gx-wide halo grid
// exports: one entry per neighbour.
func stencilRow(me, gx int) sparsemat.Row {
	nbs := gridNeighbours(me, gx)
	sort.Ints(nbs)
	var row sparsemat.Row
	for _, nb := range nbs {
		row.Dst = append(row.Dst, int32(nb))
		row.Cnt = append(row.Cnt, 200)
		row.Byt = append(row.Byt, 200*4096)
	}
	return row
}

func probeCodecs(p *params, _ int64, out map[string]float64) error {
	gx := p.Halo.GX
	row := stencilRow(gx*gx/2+gx/2, gx)
	var buf []byte
	out["sparsemat.append_row_ns"] = timeOp(p.Probe.MinOpTime, func() { buf = sparsemat.AppendRow(buf[:0], row) })
	out["sparsemat.bytes_per_row"] = float64(len(buf))
	var err error
	out["sparsemat.decode_row_ns"] = timeOp(p.Probe.MinOpTime, func() {
		if _, _, e := sparsemat.DecodeRow(buf, gx*gx); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	ctr := telemetry.NewRegistry().Counter("bench_probe_total")
	out["telemetry.counter_add_ns"] = timeOp(p.Probe.MinOpTime, func() { ctr.Add(1) })
	shard := commitagg.NewShard(commitagg.Default())
	cell := shard.NewCell(func(int64) {})
	now := int64(0)
	out["commitagg.add_ns"] = timeOp(p.Probe.MinOpTime, func() { now++; shard.Add(cell, 1, now) })
	return nil
}

func probeMonsvc(p *params, _ int64, out map[string]float64) error {
	rowsPer, frames := p.Probe.FrameRows, p.Probe.Frames
	gx := 1
	for gx*gx < rowsPer {
		gx++
	}
	n := gx * gx
	rows := make([]monsvc.RankRow, rowsPer)
	for i := range rows {
		rows[i] = monsvc.RankRow{Rank: int32(i), Row: stencilRow(i, gx)}
	}
	encoded := make([][]byte, frames)
	for e := range encoded {
		encoded[e] = monsvc.AppendFrame(nil, uint64(e), rows)
	}
	var err error
	out["monsvc.frame_decode_us"] = timeOp(p.Probe.MinOpTime, func() {
		if _, _, e := monsvc.DecodeFrame(encoded[0], n); e != nil {
			err = e
		}
	}) / 1e3
	if err != nil {
		return err
	}

	svc := monsvc.New(monsvc.Config{RetentionEpochs: frames})
	job, err := svc.CreateJob("probe-direct", n)
	if err != nil {
		return err
	}
	rejected := 0
	t0 := time.Now()
	for _, frame := range encoded {
		if _, err := svc.Ingest(job.ID, job.Token, frame); err != nil {
			rejected += rowsPer
		}
	}
	out["monsvc.ingest_direct_rows_per_s"] = float64(frames*rowsPer-rejected) / time.Since(t0).Seconds()
	out["monsvc.view_cumulative_us"] = timeOp(p.Probe.MinOpTime, func() {
		if _, e := svc.View(job.ID, "cumulative"); e != nil {
			err = e
		}
	}) / 1e3
	if err != nil {
		return err
	}

	svc = monsvc.New(monsvc.Config{RetentionEpochs: frames})
	base, stop, err := serveLoopback(svc.Handler())
	if err != nil {
		return err
	}
	defer stop()
	client := monsvc.NewClient(base)
	if err := client.CreateJob("probe-http", n); err != nil {
		return err
	}
	t0 = time.Now()
	pushed := 0
	for e := 0; e < frames; e++ {
		if _, err := client.PushRows(uint64(e), rows); err != nil {
			rejected += rowsPer
			continue
		}
		pushed += rowsPer
	}
	out["monsvc.ingest_http_rows_per_s"] = float64(pushed) / time.Since(t0).Seconds()
	out["monsvc.rejected_rows"] = float64(rejected)
	return nil
}

func probeTreeMatch(p *params, seed int64, out map[string]float64) error {
	tp := p.TreeMatch
	if len(tp.Orders) != 3 {
		return fmt.Errorf("the treematch metrics are named after three orders, params hold %d", len(tp.Orders))
	}
	var degraded atomic.Int64
	prev := treematch.OnRefineDegrade
	treematch.OnRefineDegrade = func(treematch.RefineDegrade) { degraded.Add(1) }
	defer func() { treematch.OnRefineDegrade = prev }()

	names := []string{"treematch.maptree_ms_16384", "treematch.maptree_ms_32768", "treematch.maptree_ms_65536"}
	for i, order := range tp.Orders {
		in, err := newMapInput(order, tp.Cluster, seed+int64(i))
		if err != nil {
			return err
		}
		largest := i == len(tp.Orders)-1
		if largest {
			t0 := time.Now()
			in.topo.FullTree()
			out["topology.fulltree_ms"] = ms(time.Since(t0))
		}
		t0 := time.Now()
		m, err := treematch.FromView(in.sm)
		if err != nil {
			return err
		}
		if largest {
			out["treematch.fromview_ms_65536"] = ms(time.Since(t0))
		}
		var coreOf []int
		var wall time.Duration
		allocs, _ := allocDelta(func() {
			t0 := time.Now()
			coreOf, err = treematch.MapTree(m, in.tree)
			wall = time.Since(t0)
		})
		if err != nil {
			return err
		}
		out[names[i]] = ms(wall)
		if largest {
			out["treematch.maptree_allocs_65536"] = allocs
			out["treematch.cost_frac_vs_rr_65536"] = treematch.Cost(m, coreOf, in.topo) / in.rrCost
		}
	}
	out["treematch.refine_degraded"] = float64(degraded.Load())
	return nil
}

// probeEventHalo runs the halo-p2p program forced onto the event engine, a
// few iterations of one cold world, with barrier-delimited stages so the
// halo stage alone is the event engine's message path.
func probeEventHalo(p *params, seed int64, out map[string]float64) error {
	hp := haloParams{GX: p.Halo.GX, Iters: p.Probe.HaloIters, MsgBytes: p.Halo.MsgBytes}
	tr := newTracer("probe")
	r := newRunCtx(p, seed, 0, tr)
	st := &stages{tr: tr, traced: true}
	t0 := time.Now()
	w, bad, err := haloOnce(r, st, hp, jitter(seed, hp.MsgBytes), engine("event"))
	if err != nil {
		return err
	}
	st.close()
	runWall := time.Since(t0) - tr.total("mpi.NewWorld")
	if bad {
		return fmt.Errorf("event-engine halo: %v", r.problems)
	}
	msgs := float64(4 * hp.GX * (hp.GX - 1) * hp.Iters)
	events := float64(w.EngineStats().Events)
	out["engine.halo_event_msgs_per_s"] = msgs / tr.total("mpi.halo").Seconds()
	out["engine.events_per_rank"] = events / float64(w.Size())
	out["engine.dispatch_us"] = us(runWall) / events
	return nil
}

// probeReorder runs one reorder-loop pass (its warm-up) for the mapping
// numbers it records.
func probeReorder(p *params, seed int64, out map[string]float64) error {
	r := newRunCtx(p, seed, 0, nil)
	if err := runReorder(r); err != nil {
		return err
	}
	if len(r.problems) > 0 {
		return fmt.Errorf("reorder-loop: %v", r.problems)
	}
	for name, v := range r.layer {
		out[name] = v
	}
	return nil
}
