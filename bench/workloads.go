package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"syscall"
	"time"

	"mpimon/internal/commitagg"
	"mpimon/internal/monitoring"
	"mpimon/internal/monsvc"
	"mpimon/internal/mpi"
	"mpimon/internal/netsim"
	"mpimon/internal/pml"
	"mpimon/internal/reorder"
	"mpimon/internal/sparsemat"
	"mpimon/internal/telemetry"
	"mpimon/internal/topology"
	"mpimon/internal/treematch"
	"mpimon/internal/workloads"
)

// workload is one named set of inputs. run performs one set-up from the
// context's seed (generated inputs, world, daemon, one untimed warm-up pass)
// and then timed passes until the context's budget is spent.
type workload struct {
	name string
	unit string
	run  func(r *runCtx) error
}

// The order is the order of BENCHMARK.json.
var allWorkloads = []workload{
	{"halo-p2p", "message", runHalo},
	{"coll-payload", "message", runColl},
	{"scale-setup", "rank", runScale},
	{"reorder-loop", "message", runReorder},
	{"treematch-map", "row", runTreeMatch},
	{"epoch-export", "row", runExport},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// jitter derives a message size from the seed: within 64 bytes of base, so
// the seed changes every byte counter and virtual time but not the amount of
// host work.
func jitter(seed int64, base int) int {
	return base - 64 + rand.New(rand.NewSource(seed)).Intn(129)
}

// plafrim builds the paper's machine with just enough 24-core nodes for np
// ranks, packed.
func plafrim(np int) *netsim.Machine { return netsim.PlaFRIM((np + 23) / 24) }

func engine(name string) mpi.Option {
	e, err := mpi.EngineByName(name)
	if err != nil {
		panic(err) // the names are literals of this package
	}
	return mpi.WithEngine(e)
}

// worldMessages sums what every rank's pml monitor counted: the simulated
// messages of the run, application and collective-internal, without the
// monitoring library's own gathers (it suppresses those).
func worldMessages(w *mpi.World) int64 {
	var total uint64
	for rank := 0; rank < w.Size(); rank++ {
		m := w.Proc(rank).Monitor()
		for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
			peers := m.Touched(cl)
			counts := make([]uint64, len(peers))
			m.CountsAt(cl, peers, counts)
			for _, n := range counts {
				total += n
			}
		}
	}
	return int64(total)
}

// setUnits records the units of one pass from a world's message total over
// a number of identical cycles; the count must divide exactly.
func (r *runCtx) setUnits(total int64, cycles int) error {
	if cycles <= 0 || total <= 0 || total%int64(cycles) != 0 {
		return fmt.Errorf("%d simulated messages do not divide into %d identical passes", total, cycles)
	}
	r.units = total / int64(cycles)
	return nil
}

// halo runs iters exchanges of a non-periodic 2D stencil skeleton on a
// gx-wide rank grid: a size-only message to each grid neighbour, then as many
// wildcard receives. Closed loop: a rank's next send follows its receives.
func halo(c *mpi.Comm, gx, iters, msgBytes int) error {
	const tag = 7<<16 + 1
	nbs := gridNeighbours(c.Rank(), gx)
	for it := 0; it < iters; it++ {
		for _, nb := range nbs {
			if err := c.SendN(nb, tag, msgBytes); err != nil {
				return err
			}
		}
		for range nbs {
			if _, err := c.Recv(mpi.AnySource, tag, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

func gridNeighbours(me, gx int) []int {
	x, y := me%gx, me/gx
	nbs := make([]int, 0, 4)
	if x > 0 {
		nbs = append(nbs, me-1)
	}
	if x < gx-1 {
		nbs = append(nbs, me+1)
	}
	if y > 0 {
		nbs = append(nbs, me-gx)
	}
	if y < gx-1 {
		nbs = append(nbs, me+gx)
	}
	return nbs
}

// monitoredHalo is the program halo-p2p and scale-setup share: the halo
// exchanges under an active session, Suspend, the sparse gather to rank 0,
// and rank 0's check of the gathered matrix against the analytic stencil.
func monitoredHalo(r *runCtx, c *mpi.Comm, s *monitoring.Session, st *stages, hp haloParams, msg int) (bad bool, err error) {
	if err := st.next("mpi.halo"); err != nil {
		return false, err
	}
	if err := halo(c, hp.GX, hp.Iters, msg); err != nil {
		return false, err
	}
	if err := st.next("monitoring.Suspend"); err != nil {
		return false, err
	}
	if err := s.Suspend(); err != nil {
		return false, err
	}
	if err := st.next("monitoring.RootgatherSparse"); err != nil {
		return false, err
	}
	sm, err := s.RootgatherSparse(0, monitoring.AllComm)
	if err != nil {
		return false, err
	}
	if err := st.next("bench.verify"); err != nil {
		return false, err
	}
	if c.Rank() == 0 {
		if err := verifyStencil(sm, hp.GX, uint64(hp.Iters), uint64(msg)); err != nil {
			r.problem("gathered matrix: %v", err)
			bad = true
		}
	}
	return bad, nil
}

// startSuspended starts a session and suspends it at once. Passes that begin
// with resetContinue and end suspended keep the barrier between passes out of
// the monitored data.
func startSuspended(env *monitoring.Env, c *mpi.Comm) (*monitoring.Session, error) {
	s, err := env.Start(c)
	if err != nil {
		return nil, err
	}
	return s, s.Suspend()
}

func resetContinue(s *monitoring.Session) error {
	if err := s.Reset(); err != nil {
		return err
	}
	return s.Continue()
}

// runHalo is halo-p2p: one world on the default engine, a monitored halo
// skeleton per pass.
func runHalo(r *runCtx) error {
	hp := r.p.Halo
	msg := jitter(r.seed, hp.MsgBytes)
	np := hp.GX * hp.GX
	var w *mpi.World
	var err error
	r.tr.timed("mpi.NewWorld", func() { w, err = mpi.NewWorld(plafrim(np), np) })
	if err != nil {
		return err
	}
	err = w.Run(func(c *mpi.Comm) error {
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		s, err := startSuspended(env, c)
		if err != nil {
			return err
		}
		err = r.inWorld(c, func(st *stages) (bool, error) {
			if err := st.next("monitoring.Reset+Continue"); err != nil {
				return false, err
			}
			if err := resetContinue(s); err != nil {
				return false, err
			}
			return monitoredHalo(r, c, s, st, hp, msg)
		})
		if err != nil {
			return err
		}
		return env.Finalize()
	})
	if err != nil {
		return err
	}
	return r.setUnits(worldMessages(w), len(r.passes)+1)
}

// haloOnce is one cold world: NewWorld, a monitored halo, gather, verify,
// teardown. scale-setup runs it in a fresh process per pass and the engine
// probe runs it on the event engine.
func haloOnce(r *runCtx, st *stages, hp haloParams, msg int, opts ...mpi.Option) (w *mpi.World, bad bool, err error) {
	np := hp.GX * hp.GX
	if err := st.next("mpi.NewWorld"); err != nil {
		return nil, false, err
	}
	w, err = mpi.NewWorld(plafrim(np), np, opts...)
	if err != nil {
		return nil, false, err
	}
	if err := st.next("mpi.Run"); err != nil {
		return nil, false, err
	}
	err = w.Run(func(c *mpi.Comm) error {
		st := st.enter(c)
		if err := st.next("monitoring.Init+Start"); err != nil {
			return err
		}
		env, err := monitoring.Init(c.Proc())
		if err != nil {
			return err
		}
		s, err := env.Start(c)
		if err != nil {
			return err
		}
		b, err := monitoredHalo(r, c, s, st, hp, msg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			bad = b
		}
		if err := st.next("monitoring.Finalize"); err != nil {
			return err
		}
		return env.Finalize()
	})
	st.leave()
	return w, bad, err
}

// childReport is what one `-child scale-setup` process prints.
type childReport struct {
	VirtNs int64  `json:"virt_ns"`
	Bad    bool   `json:"bad"`
	Note   string `json:"note,omitempty"`
	Spans  []span `json:"spans,omitempty"`
}

// scaleChild is the body of a `-child scale-setup` process: one cold world.
func scaleChild(p *params, seed int64, traced bool) (childReport, error) {
	var tr *tracer
	if traced {
		tr = newTracer("scale-setup")
	}
	r := newRunCtx(p, seed, 0, tr)
	st := &stages{tr: tr, traced: traced}
	w, bad, err := haloOnce(r, st, p.Scale, jitter(seed, p.Scale.MsgBytes))
	if err != nil {
		return childReport{}, err
	}
	st.close()
	rep := childReport{VirtNs: int64(w.MaxClock()), Bad: bad}
	if len(r.problems) > 0 {
		rep.Note = r.problems[0]
	}
	if tr != nil {
		rep.Spans = tr.spans
	}
	return rep, nil
}

// runScale is scale-setup: every pass is a fresh process, because a user
// pays world construction and engine start-up cold on every run.
func runScale(r *runCtx) error {
	mode := []string{"-child", "scale-setup"}
	if r.tr != nil {
		mode = append(mode, "-trace", "1")
	}
	r.units = int64(r.p.Scale.GX * r.p.Scale.GX)
	var rss []float64
	err := r.repeat(func(st *stages) (time.Duration, bool, error) {
		if err := st.next("bench.child"); err != nil {
			return 0, false, err
		}
		began := r.tr.since()
		cmd, err := self(r.p, r.seed, mode...)
		if err != nil {
			return 0, false, err
		}
		out, err := cmd.Output()
		if err != nil {
			return 0, false, fmt.Errorf("child pass: %w", err)
		}
		var rep childReport
		if err := json.Unmarshal(out, &rep); err != nil {
			return 0, false, fmt.Errorf("child pass printed %q: %w", out, err)
		}
		if rep.Bad {
			r.problem("child pass: %s", rep.Note)
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = append(rss, float64(ru.Maxrss)/1024) // Linux reports KiB
		}
		r.tr.adopt(st.cur, began, rep.Spans)
		return time.Duration(rep.VirtNs), rep.Bad, nil
	})
	if len(rss) > 1 {
		rss = rss[1:] // the warm-up child
	}
	r.peakRSSMB = median(rss)
	return err
}

// collInputs are coll-payload's generated payloads and the results every
// rank must see.
type collInputs struct {
	np        int
	bcast     []byte   // root's payload, everyone's expected result
	arBase    []byte   // rank k contributes arBase[i] + 7k (mod 256)
	arWant    []byte   // elementwise max over ranks
	a2aSalt   byte     // block from rank i to rank j is filled with salt + i*np + j
	a2aBlock  int      // bytes per peer
	redBase   []uint64 // rank k contributes redBase[i] + k
	redWant   []byte   // encoded elementwise sum over ranks
	redLength int
}

func newCollInputs(seed int64, cp collParams, np int) *collInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &collInputs{np: np, a2aBlock: cp.AlltoallBytes, redLength: cp.ReduceBytes}
	in.bcast = make([]byte, cp.BcastBytes)
	rng.Read(in.bcast)
	in.arBase = make([]byte, cp.AllreduceBytes)
	rng.Read(in.arBase)
	in.arWant = make([]byte, len(in.arBase))
	for i, b := range in.arBase {
		for k := 0; k < np; k++ {
			if v := b + byte(7*k); v > in.arWant[i] {
				in.arWant[i] = v
			}
		}
	}
	in.a2aSalt = byte(rng.Intn(256))
	in.redBase = make([]uint64, cp.ReduceBytes/8)
	in.redWant = make([]byte, cp.ReduceBytes)
	for i := range in.redBase {
		in.redBase[i] = rng.Uint64()
		sum := uint64(np)*in.redBase[i] + uint64(np*(np-1)/2)
		binary.LittleEndian.PutUint64(in.redWant[8*i:], sum)
	}
	return in
}

// collBuffers are one rank's send, receive and expected buffers.
type collBuffers struct {
	bcast, arSend, arRecv, a2aSend, a2aRecv, a2aWant, redSend, redRecv []byte
}

func (in *collInputs) buffers(rank int) *collBuffers {
	b := &collBuffers{
		bcast:   make([]byte, len(in.bcast)),
		arSend:  make([]byte, len(in.arBase)),
		arRecv:  make([]byte, len(in.arBase)),
		a2aSend: make([]byte, in.np*in.a2aBlock),
		a2aRecv: make([]byte, in.np*in.a2aBlock),
		a2aWant: make([]byte, in.np*in.a2aBlock),
		redSend: make([]byte, in.redLength),
	}
	for i, v := range in.arBase {
		b.arSend[i] = v + byte(7*rank)
	}
	for peer := 0; peer < in.np; peer++ {
		blk := b.a2aSend[peer*in.a2aBlock : (peer+1)*in.a2aBlock]
		want := b.a2aWant[peer*in.a2aBlock : (peer+1)*in.a2aBlock]
		for i := range blk {
			blk[i] = in.a2aSalt + byte(rank*in.np+peer)
			want[i] = in.a2aSalt + byte(peer*in.np+rank)
		}
	}
	for i, v := range in.redBase {
		binary.LittleEndian.PutUint64(b.redSend[8*i:], v+uint64(rank))
	}
	if rank == 0 {
		b.redRecv = make([]byte, in.redLength)
	}
	return b
}

// round runs the four collectives once with cleared receive buffers and
// reports whether every result is the expected one.
func (in *collInputs) round(c *mpi.Comm, st *stages, b *collBuffers) (ok bool, err error) {
	root := c.Rank() == 0
	if err := st.next("mpi.Bcast"); err != nil {
		return false, err
	}
	if root {
		copy(b.bcast, in.bcast)
	} else {
		clear(b.bcast)
	}
	if err := c.Bcast(b.bcast, 0); err != nil {
		return false, err
	}
	if err := st.next("mpi.Allreduce"); err != nil {
		return false, err
	}
	clear(b.arRecv)
	if err := c.Allreduce(b.arSend, b.arRecv, mpi.Byte, mpi.OpMax); err != nil {
		return false, err
	}
	if err := st.next("mpi.Alltoall"); err != nil {
		return false, err
	}
	clear(b.a2aRecv)
	if err := c.Alltoall(b.a2aSend, b.a2aRecv); err != nil {
		return false, err
	}
	if err := st.next("mpi.Reduce"); err != nil {
		return false, err
	}
	clear(b.redRecv)
	if err := c.Reduce(b.redSend, b.redRecv, mpi.Uint64, mpi.OpSum, 0); err != nil {
		return false, err
	}
	if err := st.next("bench.verify"); err != nil {
		return false, err
	}
	return in.check(b, root), nil
}

// check is coll-payload's verifier: every receive buffer holds exactly the
// expected result (the reduce result at the root only).
func (in *collInputs) check(b *collBuffers, root bool) bool {
	ok := bytes.Equal(b.bcast, in.bcast) && bytes.Equal(b.arRecv, in.arWant) && bytes.Equal(b.a2aRecv, b.a2aWant)
	if root {
		ok = ok && bytes.Equal(b.redRecv, in.redWant)
	}
	return ok
}

// runColl is coll-payload: the paper's 48-rank PlaFRIM configuration on the
// event engine, rounds of four collectives with real, verified payloads.
func runColl(r *runCtx) error {
	cp := r.p.Coll
	np := cp.Nodes * 24
	in := newCollInputs(r.seed, cp, np)
	r.exactVirt = true
	var w *mpi.World
	var err error
	r.tr.timed("mpi.NewWorld", func() { w, err = mpi.NewWorld(netsim.PlaFRIM(cp.Nodes), np, engine("event")) })
	if err != nil {
		return err
	}
	wrong := make([]int, np) // rounds in which the rank saw a wrong result
	err = w.Run(func(c *mpi.Comm) error {
		b := in.buffers(c.Rank())
		return r.inWorld(c, func(st *stages) (bool, error) {
			for round := 0; round < cp.Rounds; round++ {
				ok, err := in.round(c, st, b)
				if err != nil {
					return false, err
				}
				if !ok {
					wrong[c.Rank()]++
				}
			}
			return false, nil
		})
	})
	if err != nil {
		return err
	}
	for rank, n := range wrong {
		if n > 0 {
			r.failAll("rank %d saw a wrong collective result in %d rounds", rank, n)
			break
		}
	}
	return r.setUnits(worldMessages(w), len(r.passes)+1)
}

// reorderPass is what one reorder-loop pass measured, in virtual time.
type reorderPass struct {
	t1, t2, t3 time.Duration
	k          []int
	costRatio  float64
	mapHost    time.Duration
}

// runReorder is reorder-loop: the paper's Fig. 1 loop end to end on a fresh
// event-engine world per pass — baseline iterations, one monitored
// iteration, gather, TreeMatch, split, reordered iterations.
func runReorder(r *runCtx) error {
	rp := r.p.Reorder
	np := rp.Nodes * 24
	mach := netsim.PlaFRIM(rp.Nodes)
	rr, err := treematch.PlacementRoundRobin(np, mach.Topo)
	if err != nil {
		return err
	}
	// The seed rotates which rank starts the round-robin and jitters the
	// block size: every group still straddles all nodes.
	rng := rand.New(rand.NewSource(r.seed))
	off := rng.Intn(np)
	place := make([]int, np)
	for i := range place {
		place[i] = rr[(i+off)%np]
	}
	block := rp.Bytes - 64 + rng.Intn(129)
	r.exactVirt = true

	var first *reorderPass
	return r.repeat(func(st *stages) (time.Duration, bool, error) {
		if err := st.next("mpi.NewWorld"); err != nil {
			return 0, false, err
		}
		w, err := mpi.NewWorld(mach, np, mpi.WithPlacement(place), engine("event"))
		if err != nil {
			return 0, false, err
		}
		if err := st.next("mpi.Run"); err != nil {
			return 0, false, err
		}
		var res reorderPass
		err = w.Run(func(c *mpi.Comm) error {
			return reorderProgram(c, st.enter(c), rp, block, place, &res)
		})
		st.leave()
		if err != nil {
			return 0, false, err
		}
		if err := r.setUnits(worldMessages(w), 1); err != nil {
			return 0, false, err
		}
		if err := st.next("bench.verify"); err != nil {
			return 0, false, err
		}
		gain := float64(res.t1) / float64(res.t2+res.t3)
		bad := false
		if err := verifyPermutation(res.k); err != nil {
			r.problem("reordering: %v", err)
			bad = true
		}
		if !(res.costRatio < 1) {
			r.problem("reordering did not lower the placement cost (ratio %v)", res.costRatio)
			bad = true
		}
		if first == nil {
			first = &res
			r.layer["reorder.virt_gain_x"] = gain
			r.layer["reorder.placement_cost_ratio"] = res.costRatio
		} else if res.t1 != first.t1 || res.t2 != first.t2 || res.t3 != first.t3 {
			r.problem("virtual times differ between passes: %v/%v/%v then %v/%v/%v",
				first.t1, first.t2, first.t3, res.t1, res.t2, res.t3)
			bad = true
		}
		r.layer["reorder.compute_mapping_us"] = float64(res.mapHost) / 1e3
		return res.t1 + res.t2 + res.t3, bad, nil
	})
}

// reorderProgram is the rank program of reorder-loop. Ranks form one
// allgather group per node's worth of ranks; under the round-robin placement
// each group straddles every node until the reordering co-locates it.
func reorderProgram(c *mpi.Comm, st *stages, rp reorderParams, block int, place []int, res *reorderPass) error {
	p := c.Proc()
	root := c.Rank() == 0
	groups := func(cc *mpi.Comm) (*mpi.Comm, error) { return cc.Split(cc.Rank()/24, cc.Rank()) }
	allgathers := func(sub *mpi.Comm, n int) error {
		for i := 0; i < n; i++ {
			if err := sub.AllgatherN(block); err != nil {
				return err
			}
		}
		return nil
	}
	// mark closes a virtual-time interval with a barrier, as the paper's
	// measurement does.
	mark := func(cc *mpi.Comm, since time.Duration) (time.Duration, error) {
		err := cc.Barrier()
		return p.Clock() - since, err
	}

	if err := st.next("mpi.Split"); err != nil {
		return err
	}
	sub, err := groups(c)
	if err != nil {
		return err
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	t0 := p.Clock()
	if err := st.next("mpi.Allgather baseline"); err != nil {
		return err
	}
	if err := allgathers(sub, rp.Iters); err != nil {
		return err
	}
	t1, err := mark(c, t0)
	if err != nil {
		return err
	}

	t0 = p.Clock()
	if err := st.next("monitoring.Init+Start"); err != nil {
		return err
	}
	env, err := monitoring.Init(p)
	if err != nil {
		return err
	}
	s, err := env.Start(c)
	if err != nil {
		return err
	}
	if err := st.next("mpi.Allgather monitored"); err != nil {
		return err
	}
	if err := allgathers(sub, 1); err != nil {
		return err
	}
	if err := st.next("monitoring.Suspend"); err != nil {
		return err
	}
	if err := s.Suspend(); err != nil {
		return err
	}
	if err := st.next("monitoring.RootgatherSparse"); err != nil {
		return err
	}
	sm, err := s.RootgatherSparse(0, monitoring.AllComm)
	if err != nil {
		return err
	}
	if err := st.next("reorder.ComputeMapping"); err != nil {
		return err
	}
	k := make([]int, c.Size())
	if root {
		topo := c.World().Machine().Topo
		h0 := time.Now()
		if k, err = reorder.ComputeMapping(sm, topo, place); err != nil {
			return err
		}
		res.mapHost = time.Since(h0)
		// What reorder.WithFixedMappingTime charges: a fixed virtual cost
		// instead of the measured host time, so virtual time repeats.
		p.Compute(rp.MappingTime)
		res.k = k
		if res.costRatio, err = placementCostRatio(sm, topo, place, k); err != nil {
			return err
		}
	}
	if err := st.next("mpi.Bcast+Split"); err != nil {
		return err
	}
	buf := mpi.EncodeInts(k)
	if err := c.Bcast(buf, 0); err != nil {
		return err
	}
	k = mpi.DecodeInts(buf)
	opt, err := c.Split(0, k[c.Rank()])
	if err != nil {
		return err
	}
	sub, err = groups(opt)
	if err != nil {
		return err
	}
	t2, err := mark(c, t0)
	if err != nil {
		return err
	}

	t0 = p.Clock()
	if err := st.next("mpi.Allgather reordered"); err != nil {
		return err
	}
	if err := allgathers(sub, rp.Iters); err != nil {
		return err
	}
	t3, err := mark(opt, t0)
	if err != nil {
		return err
	}
	if root {
		res.t1, res.t2, res.t3 = t1, t2, t3
	}
	if err := st.next("monitoring.Finalize"); err != nil {
		return err
	}
	return env.Finalize()
}

// placementCostRatio is the TreeMatch objective after the reordering over
// the objective before it: role k[r] now runs where rank r is placed.
func placementCostRatio(sm *sparsemat.Matrix, topo *topology.Topology, place, k []int) (float64, error) {
	if err := verifyPermutation(k); err != nil {
		return 0, err
	}
	m, err := treematch.FromView(sm)
	if err != nil {
		return 0, err
	}
	after := make([]int, len(k))
	for rank, role := range k {
		after[role] = place[rank]
	}
	return treematch.Cost(m, after, topo) / treematch.Cost(m, place, topo), nil
}

// mapInput is one treematch-map problem: the gathered matrix a world of that
// order would hand to the mapper, and the machine it is mapped onto.
type mapInput struct {
	order  int
	sm     *sparsemat.Matrix
	topo   *topology.Topology
	tree   *topology.Tree
	rrCost float64
	first  []int
}

// newMapInput builds the seeded clustered matrix of one order and the
// machine with exactly that many cores (nodes of 2 x 16).
func newMapInput(order, cluster int, seed int64) (*mapInput, error) {
	if order%32 != 0 {
		return nil, fmt.Errorf("matrix order %d is not a multiple of the 32-core node", order)
	}
	in := &mapInput{order: order, sm: sparseOf(workloads.ClusteredSparse(order, cluster, 1000, 1, seed))}
	var err error
	if in.topo, err = topology.New(order/32, 2, 16); err != nil {
		return nil, err
	}
	in.tree = in.topo.FullTree()
	m, err := treematch.FromView(in.sm)
	if err != nil {
		return nil, err
	}
	rr, err := treematch.PlacementRoundRobin(order, in.topo)
	if err != nil {
		return nil, err
	}
	in.rrCost = treematch.Cost(m, rr, in.topo)
	return in, nil
}

// sparseOf turns a symmetric affinity matrix into the sparse bytes matrix
// whose pairwise sums are those affinities (each pair's weight travels in
// the lower-to-higher direction).
func sparseOf(m *treematch.Matrix) *sparsemat.Matrix {
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

// mapOnce maps one input and checks the placement: a valid permutation, the
// same on every pass, and no costlier than round-robin.
func (in *mapInput) mapOnce(st *stages) (costFrac float64, err error) {
	if err := st.next("treematch.FromView"); err != nil {
		return 0, err
	}
	m, err := treematch.FromView(in.sm)
	if err != nil {
		return 0, err
	}
	if err := st.next("treematch.MapTree"); err != nil {
		return 0, err
	}
	coreOf, err := treematch.MapTree(m, in.tree)
	if err != nil {
		return 0, err
	}
	if err := st.next("bench.verify"); err != nil {
		return 0, err
	}
	cost := treematch.Cost(m, coreOf, in.topo)
	if in.first == nil {
		in.first = coreOf
	}
	return cost / in.rrCost, verifyPlacement(coreOf, in.first, cost, in.rrCost)
}

// runTreeMatch is treematch-map: no world, only the mapping path.
func runTreeMatch(r *runCtx) error {
	tp := r.p.TreeMatch
	var inputs []*mapInput
	var err error
	r.tr.timed("workloads.ClusteredSparse", func() {
		for i, order := range tp.Orders {
			var in *mapInput
			if in, err = newMapInput(order, tp.Cluster, r.seed+int64(i)); err != nil {
				return
			}
			inputs = append(inputs, in)
			r.units += int64(order)
		}
	})
	if err != nil {
		return err
	}
	return r.repeat(func(st *stages) (time.Duration, bool, error) {
		bad := false
		for _, in := range inputs {
			if _, err := in.mapOnce(st); err != nil {
				r.problem("order %d: %v", in.order, err)
				bad = true
			}
		}
		return 0, bad, nil
	})
}

// runExport is epoch-export: the live-monitoring configuration. A world with
// a telemetry hub streams one sparse row per rank per epoch through the
// batching exporter to an in-process daemon on a loopback listener. The
// daemon lives for the whole run; every pass is a fresh world and a fresh job
// (a session numbers its epochs from zero, and a hub keeps every span it is
// given, so one world for the whole run would grow without bound).
func runExport(r *runCtx) error {
	ep := r.p.Export
	msg := jitter(r.seed, ep.MsgBytes)
	np := ep.GX * ep.GX
	r.units = int64(np * ep.Epochs)

	// Retention covers two passes of epochs: ranks drift apart by less than
	// a pass, so no row is pushed to an epoch the daemon already compacted.
	svc := monsvc.New(monsvc.Config{RetentionEpochs: 2 * ep.Epochs})
	var base string
	var stop func()
	var err error
	r.tr.timed("monsvc.listen", func() { base, stop, err = serveLoopback(svc.Handler()) })
	if err != nil {
		return err
	}
	defer stop()

	return r.repeat(func(st *stages) (time.Duration, bool, error) {
		if err := st.next("monsvc.CreateJob"); err != nil {
			return 0, false, err
		}
		client := monsvc.NewClient(base)
		if err := client.CreateJob("epoch-export", np); err != nil {
			return 0, false, err
		}
		batch := monitoring.NewBatchingRowExporter(client.ExportRowBatch, commitagg.Policy{Threshold: np, IntervalNs: -1})
		if err := st.next("mpi.NewWorld"); err != nil {
			return 0, false, err
		}
		w, err := mpi.NewWorld(plafrim(np), np, mpi.WithTelemetry(telemetry.New()))
		if err != nil {
			return 0, false, err
		}
		if err := st.next("mpi.Run"); err != nil {
			return 0, false, err
		}
		err = w.Run(func(c *mpi.Comm) error {
			return exportProgram(c, st.enter(c), ep, msg, batch)
		})
		st.leave()
		if err != nil {
			return 0, false, err
		}
		if err := st.next("bench.verify"); err != nil {
			return 0, false, err
		}
		cum, err := client.Matrix("cumulative")
		if err != nil {
			return 0, false, err
		}
		bad := false
		if err := verifyExport(cum, svc.Stats().Rows, ep.GX, uint64(ep.Epochs), uint64(ep.Iters), uint64(msg)); err != nil {
			r.problem("daemon: %v", err)
			bad = true
		}
		if err := svc.Delete(client.JobID, client.Token); err != nil {
			return 0, false, err
		}
		return w.MaxClock(), bad, nil
	})
}

// exportProgram is the rank program of epoch-export: per epoch a few halo
// exchanges, then Suspend, which streams the rank's row to the exporter.
func exportProgram(c *mpi.Comm, st *stages, ep exportParams, msg int, batch *monitoring.BatchingRowExporter) error {
	if err := st.next("monitoring.Init+Start"); err != nil {
		return err
	}
	env, err := monitoring.Init(c.Proc())
	if err != nil {
		return err
	}
	s, err := startSuspended(env, c)
	if err != nil {
		return err
	}
	s.SetRowExporter(batch.Export)
	for e := 0; e < ep.Epochs; e++ {
		if err := st.next("monitoring.Reset+Continue"); err != nil {
			return err
		}
		if err := resetContinue(s); err != nil {
			return err
		}
		if err := st.next("mpi.halo"); err != nil {
			return err
		}
		if err := halo(c, ep.GX, ep.Iters, msg); err != nil {
			return err
		}
		if err := st.next("monitoring.Suspend+export"); err != nil {
			return err
		}
		if err := s.Suspend(); err != nil {
			return err
		}
	}
	// Every rank's last row must be in the exporter before rank 0 flushes.
	if err := st.next("monitoring.Flush"); err != nil {
		return err
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	if c.Rank() == 0 {
		if err := batch.Flush(); err != nil {
			return err
		}
	}
	return env.Finalize()
}

// serveLoopback serves h on a loopback listener and returns its base URL and
// a stop function that returns once the server goroutine has exited.
func serveLoopback(h http.Handler) (base string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l) // always ErrServerClosed after Shutdown
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close() // connections still open after the grace period
		}
		<-done
	}
	return "http://" + l.Addr().String(), stop, nil
}
