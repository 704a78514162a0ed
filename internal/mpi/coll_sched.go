package mpi

import (
	"fmt"
	"math/bits"
	"sync"
)

// Collectives as data. Every collective of this package but AlltoallvBruck
// (coll_portfolio.go: the sizes of its packed frames depend on the data
// that arrives) is a schedule: for one rank of an n-rank group, a short
// list of phases, each a fixed algorithm whose k-th step is computed from
// k and the schedule's (n, rank, root, block layout) alone. Nothing is
// materialised per call or per rank. One interpreter (cursor) runs every
// schedule, so the entry bracket, payload versus size-only runs, message
// ownership and error routing are written once; and the same cursor is
// what the event engine advances in place while the rank is parked in one
// of its receives (evScheduler.pickSwitch).

// recvKind is what a step does with the message it receives.
type recvKind uint8

const (
	rNone recvKind = iota // the step receives nothing
	// rInto receives into block [off, off+n) of recv. exact requires the
	// message to fill the block. hold keeps the message for the sends that
	// forward it and defers a truncation error to the end, after this
	// rank's successors are served.
	rInto
	// rFold folds the payload into block [off, off+n) of recv, op(block,
	// payload) — op(payload, block) when left. intoHeld folds into the held
	// message instead, drawn on the first fold with the send block as its
	// other operand; deliver then also copies the payload into the recv
	// block.
	rFold
	// rStream hands the block from peer from to the schedule's sink — its
	// own send buffer when from is this rank — instead of placing it. The
	// message is received as by recvMsg, parked through parkRecv and never
	// as the cursor, so no other rank advances a streaming root and the
	// sink runs on the root's own stack.
	rStream
)

// step is one round of a schedule: a local copy, then a send, then a
// receive, each optional, all on tag. Peers are ranks of the communicator.
type step struct {
	tag int
	// copies copies n bytes at soff of the send buffer to off of recv.
	copies bool
	// sends sends to peer to the held message — the message itself, or a
	// copy of it when keep is set — or, with nothing held, a copy of block
	// [soff, soff+sn) of the send buffer (fromSend) or of recv. A size-only
	// run sends sn bytes of nothing.
	sends          bool
	to, soff, sn   int
	fromSend, keep bool
	// recv receives from peer from (see recvKind).
	recv                                 recvKind
	from, off, n                         int
	hold, exact, left, intoHeld, deliver bool
}

// phaseKind names one algorithm a schedule is a concatenation of.
type phaseKind uint8

const (
	phCopy           phaseKind = iota // this rank's own block, send to recv
	phBarrier                         // dissemination, zero-byte messages
	phBcast                           // binomial tree, the whole buffer forwarded down
	phScatterTree                     // binomial tree, each subtree's blocks (BcastSAG)
	phReduce                          // in-order binary tree, folded up
	phReduceBinomial                  // binomial tree, folded up
	phGather                          // linear, every block to root
	phScatter                         // linear, every block from root
	phRing                            // ring allgather, each block forwarded on
	phRingFold                        // ring reduce-scatter (AllreduceRing)
	phPairwise                        // pairwise exchange (Alltoall, Alltoallv)
	phPairFold                        // pairwise reduce-scatter (ReduceScatterBlock)
	phDoubling                        // recursive-doubling allgather
	phAllreduceRD                     // recursive-doubling allreduce, with fold-in and fold-out
	phRab                             // Rabenseifner: recursive halving, then doubling
	phScan                            // linear inclusive prefix
	phExscan                          // linear exclusive prefix
)

// phase is one algorithm of a schedule, on its tag base. root is the
// tree's root, or the shift of a ring: its round 0 sends block rank−root.
type phase struct {
	kind             phaseKind
	root, tag, slots int
}

// layoutKind says where block j of a buffer lies.
type layoutKind uint8

const (
	lWhole    layoutKind = iota // every block is the whole size bytes
	lUniform                    // blk bytes at j·blk
	lCounts                     // counts[j] bytes at displs[j]
	lBalanced                   // the j-th of n balanced runs of whole elements
)

type layout struct {
	kind           layoutKind
	blk            int
	counts, displs []int
}

// sched is one rank's schedule of a collective: up to three phases run in
// order, over a send and a recv buffer whose blocks the two layouts place.
// size is the whole payload; without carry only sizes move, and the
// buffers are nil. A streaming root's sink takes the blocks it gathers
// (rStream). err is a validation error: such a schedule runs nothing.
type sched struct {
	n, rank int
	ph      [3]phase
	size    int
	sl, rl  layout
	dt      Datatype
	op      Op
	s, r    []byte
	carry   bool
	sink    func(src int, block []byte) error
	err     error
}

// skeleton starts the schedule of a size-only collective, whose messages
// carry size bytes of nothing, in the rank's cursor, which it takes from
// cursors; sched that of a collective that moves the payloads of send and
// recv. A schedule is built in place, by the methods below, and run by
// Comm.run or Comm.exec.
func (c *Comm) skeleton(size int) *sched {
	cur := c.p.cur
	if cur == nil {
		cur = cursors.Get().(*cursor)
		c.p.cur = cur
	}
	cur.sched = sched{n: len(c.group), rank: c.rank, size: size}
	return &cur.sched
}

func (c *Comm) sched(send, recv []byte, size int) *sched {
	k := c.skeleton(size)
	k.s, k.r, k.carry = send, recv, true
	return k
}

// fail records a validation error unless one is recorded already.
func (k *sched) fail(err error) *sched {
	if k.err == nil {
		k.err = err
	}
	return k
}

// rooted checks root.
func (k *sched) rooted(root int) *sched {
	if root < 0 || root >= k.n {
		return k.fail(fmt.Errorf("mpi: root rank %d out of range [0,%d)", root, k.n))
	}
	return k
}

// then appends a phase, over the first slot of ph that has no steps: a
// phase without steps (a ring of one rank) has nothing to run.
func (k *sched) then(kind phaseKind, root, tag int) *sched {
	n, lg := k.n, bits.Len(uint(k.n-1))
	var slots int
	switch kind {
	case phCopy:
		slots = 1
	case phBarrier, phDoubling:
		slots = lg
	case phBcast, phScatterTree:
		slots = lg + 1
	case phReduce:
		slots = 4
	case phReduceBinomial:
		slots = lg + 2
	case phGather, phScatter:
		slots = 1 // a member's one message to or from root
		if k.rank == root {
			slots = n
		}
	case phRing, phPairwise, phPairFold:
		slots = n - 1
	case phRingFold:
		slots = n
	case phAllreduceRD:
		slots = 3 + (bits.Len(uint(n)) - 1)
	case phRab:
		slots = 3 + 2*(bits.Len(uint(n))-1)
	case phScan:
		slots = 3
	case phExscan:
		slots = 2
	}
	for i := range k.ph {
		if k.ph[i].slots == 0 {
			k.ph[i] = phase{kind: kind, root: root, tag: tag, slots: slots}
			break
		}
	}
	return k
}

// steps is the schedule's number of step slots.
func (k *sched) steps() int { return k.ph[0].slots + k.ph[1].slots + k.ph[2].slots }

// at places block j of layout l.
func (k *sched) at(l *layout, j int) (off, n int) {
	switch l.kind {
	case lUniform:
		return j * l.blk, l.blk
	case lCounts:
		return l.displs[j], l.counts[j]
	case lBalanced:
		es := k.dt.Size()
		elems := k.size / es
		lo := elems * j / k.n * es
		return lo, elems*(j+1)/k.n*es - lo
	}
	return 0, k.size
}

// own copies this rank's own block from send to recv.
func (k *sched) own() step {
	so, sn := k.at(&k.sl, k.rank)
	ro, rn := k.at(&k.rl, k.rank)
	return step{copies: true, soff: so, off: ro, n: min(sn, rn)}
}

// lowbit is the span of virtual rank v's subtree in a binomial tree of n
// ranks: v's lowest set bit, and for the root the least power of two ≥ n.
// v's parent is v−lowbit, its children v+m for the powers of two m below.
func lowbit(v, n int) int {
	if v == 0 {
		return 1 << bits.Len(uint(n-1))
	}
	return v & -v
}

// wrap reduces x in [0, 2n) modulo n, without a division.
func wrap(x, n int) int {
	if x >= n {
		return x - n
	}
	return x
}

// step computes step i of the schedule into st. A step that neither
// copies, sends nor receives is a slot this rank has nothing to do in.
func (k *sched) step(i int, st *step) {
	ph := &k.ph[0]
	for j := 1; i >= ph.slots; j++ {
		i -= ph.slots
		ph = &k.ph[j]
	}
	n, rank := k.n, k.rank
	vr := wrap(rank-ph.root+n, n)
	*st = step{tag: ph.tag}
	switch ph.kind {
	case phRing, phRingFold:
		// Round i sends block vr−i to the right and receives block vr−i−1
		// from the left.
		if ph.kind == phRingFold {
			if i == 0 {
				*st = k.copyWhole()
				return
			}
			i--
		}
		st.tag += i
		st.sends, st.to = true, wrap(rank+1, n)
		st.soff, st.sn = k.at(&k.rl, wrap(vr-i+n, n))
		st.recv, st.from, st.hold = rInto, wrap(rank-1+n, n), true
		if ph.kind == phRingFold {
			st.recv, st.hold = rFold, false
		}
		st.off, st.n = k.at(&k.rl, wrap(vr-i-1+n, n))

	case phCopy:
		*st = k.own()

	case phBarrier:
		off := 1 << i
		st.tag += i
		st.sends, st.to = true, (rank+off)%n
		st.recv, st.from = rInto, (rank-off+n)%n

	case phBcast, phScatterTree:
		lb := lowbit(vr, n)
		v, m := vr, lb // the subtree whose block the step moves
		if i == 0 {
			if vr == 0 {
				return
			}
			st.recv, st.from, st.hold = rInto, (rank-lb+n)%n, ph.kind == phBcast
		} else {
			if m = lb >> i; m == 0 || vr+m >= n {
				return
			}
			v = vr + m
			st.sends, st.to, st.keep = true, (rank+m)%n, m > 1
		}
		st.off, st.n = 0, k.size
		if ph.kind == phScatterTree {
			st.off, st.n = v*k.rl.blk, (min(v+m, n)-v)*k.rl.blk
		}
		st.soff, st.sn = st.off, st.n

	case phReduce, phReduceBinomial:
		child, parent := -1, -1
		if ph.kind == phReduce {
			switch i {
			case 1, 2:
				child = 2*vr + i
			case 3:
				parent = (vr - 1) / 2
			}
		} else if lb := lowbit(vr, n); i == ph.slots-1 {
			parent = vr - lb
		} else if i > 0 && 1<<(i-1) < lb {
			child = vr + 1<<(i-1)
		}
		switch {
		case i == 0 && vr == 0: // the root folds into recv, which starts as send
			*st = k.copyWhole()
		case child > 0 && child < n:
			st.recv, st.from, st.n, st.intoHeld = rFold, (child+ph.root)%n, k.size, vr != 0
		case parent >= 0 && vr != 0:
			st.sends, st.to, st.sn, st.fromSend = true, (parent+ph.root)%n, k.size, true
		}

	case phGather, phScatter:
		switch {
		case rank != ph.root && ph.kind == phGather:
			st.sends, st.to, st.fromSend, st.sn = true, ph.root, true, k.size
		case rank != ph.root:
			st.recv, st.from, st.n = rInto, ph.root, k.size
		case k.sink != nil:
			st.recv, st.from = rStream, i
		case i == rank:
			*st = k.own()
		case ph.kind == phGather:
			st.recv, st.from, st.exact = rInto, i, k.rl.kind == lCounts
			st.off, st.n = k.at(&k.rl, i)
		default:
			st.sends, st.to, st.fromSend = true, i, true
			st.soff, st.sn = k.at(&k.sl, i)
		}

	case phPairwise, phPairFold:
		s := i + 1
		st.tag += s
		st.sends, st.to, st.fromSend = true, (rank+s)%n, true
		st.soff, st.sn = k.at(&k.sl, st.to)
		st.recv, st.from, st.exact = rInto, (rank-s+n)%n, k.rl.kind == lCounts
		if ph.kind == phPairFold {
			st.recv = rFold
		}
		st.off, st.n = k.at(&k.rl, st.from)

	case phDoubling:
		mask := 1 << i
		st.tag += mask
		st.sends, st.to, st.from, st.recv = true, rank^mask, rank^mask, rInto
		st.sn, st.n = mask*k.rl.blk, mask*k.rl.blk
		st.soff, st.off = (rank&^(mask-1))*k.rl.blk, (st.from&^(mask-1))*k.rl.blk

	case phAllreduceRD, phRab:
		if i == 0 {
			*st = k.copyWhole()
			return
		}
		k.recursive(ph, i-1, st)

	case phScan:
		st.n, st.sn = k.size, k.size
		switch {
		case i == 0:
			*st = k.copyWhole()
		case i == 1 && rank > 0:
			st.recv, st.from, st.left = rFold, rank-1, true
		case i == 2 && rank < n-1:
			st.sends, st.to = true, rank+1
		}

	case phExscan:
		st.n, st.sn = k.size, k.size
		switch {
		case i == 0 && rank == 0 && n > 1:
			st.sends, st.to, st.fromSend = true, 1, true
		case i == 0 && rank == n-1 && rank > 0:
			st.recv, st.from, st.exact = rInto, rank-1, true
		case i == 0 && rank > 0:
			// Fold the prefix and send into the message for rank+1 before
			// recv is written, so an aliased recv still contributes.
			st.recv, st.from, st.intoHeld, st.left, st.deliver = rFold, rank-1, true, true, true
		case i == 1 && rank > 0 && rank < n-1:
			st.sends, st.to = true, rank+1
		}
	}
}

// copyWhole copies all of send to recv: the start of a reduction, whose
// folds accumulate in recv.
func (k *sched) copyWhole() step { return step{copies: true, n: k.size} }

// recursive computes step i of the allreduces that need a power of two
// into st: on a group of pof2+rem ranks (pof2 the largest power of two
// ≤ n), the first 2·rem ranks fold pairwise, so that pof2 ranks — the odd
// ones of the folded region and the rest — run the exchange rounds while
// the even ones sit out, and the even ones get the result back at the end.
// Step i here is the phase's step i+1, after the copy: step 0 is the
// fold-in, the last step the fold-out. Between them AllreduceRD exchanges
// and folds the whole vector each round; AllreduceRab halves the vector
// each round — sending the half it gives up, folding the half it keeps —
// then doubles it back, replaying the levels in reverse.
func (k *sched) recursive(ph *phase, i int, st *step) {
	last := ph.slots - 2
	pof2 := 1 << (bits.Len(uint(k.n)) - 1)
	rem, rank := k.n-pof2, k.rank
	st.n, st.sn = k.size, k.size
	newRank := rank - rem
	switch {
	case rank >= 2*rem:
		if i == 0 || i == last {
			return
		}
	case i == 0 && rank%2 == 0:
		st.sends, st.to = true, rank+1
		return
	case i == 0:
		st.recv, st.from = rFold, rank-1
		return
	case i == last:
		st.tag = ph.tag + 1
		if ph.kind == phAllreduceRD {
			st.tag = ph.tag + 1<<19
		}
		if rank%2 == 0 {
			st.recv, st.from = rInto, rank+1
		} else {
			st.sends, st.to = true, rank-1
		}
		return
	case rank%2 == 0:
		return
	default:
		newRank = rank / 2
	}
	r, lg := i-1, bits.Len(uint(pof2))-1
	if ph.kind == phAllreduceRD {
		mask := 1 << r
		st.tag += mask
		st.sends, st.to = true, foldPeer(newRank^mask, rem)
		st.recv, st.from = rFold, st.to
		return
	}
	level, doubling := r, r >= lg
	if doubling {
		level = 2*lg - 1 - r
	}
	mask := pof2 >> (level + 1)
	es := k.dt.Size()
	lo, hi, plo, phi := 0, k.size/es, 0, 0
	for l := 0; l <= level; l++ {
		m := pof2 >> (l + 1)
		mid := lo + (hi-lo)/2
		plo, phi = lo, hi
		if newRank&m == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	olo, ohi := hi, phi // the other half
	if lo != plo {
		olo, ohi = plo, lo
	}
	st.tag += 2 * mask
	st.sends, st.to = true, foldPeer(newRank^mask, rem)
	st.recv, st.from = rFold, st.to
	st.soff, st.sn, st.off, st.n = olo*es, (ohi-olo)*es, lo*es, (hi-lo)*es
	if doubling {
		st.tag++
		st.recv = rInto
		st.soff, st.sn, st.off, st.n = st.off, st.n, st.soff, st.sn
	}
}

// foldPeer maps an index among the pof2 ranks left by the fold-in back to
// a rank of the group: the odd ranks of the folded region hold the data.
func foldPeer(newRank, rem int) int {
	if newRank < rem {
		return 2*newRank + 1
	}
	return newRank + rem
}

// schedTrace is a test seam (coll_sched_test.go): when set, it sees every
// schedule a rank is about to run.
var schedTrace func(c *Comm, k *sched)

// run is the entry bracket of every scheduled collective: the MPI-time
// window, the span, the internal region whose messages are monitored as
// Coll, and the error handler.
func (c *Comm) run(name string, k *sched) error {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	defer c.span(name)()
	c.p.beginInternal()
	defer c.p.endInternal()
	return c.herr(c.exec(k))
}

// exec runs schedule k, which is the rank's cursor's, with the
// communicator on its collective context throughout: whoever advances the
// cursor in place sends and matches on the right context, whatever rank it
// is.
func (c *Comm) exec(k *sched) error {
	cur := c.p.cur
	err := k.err
	if err == nil {
		cur.c, cur.i, cur.end = c, -1, k.steps()
		cur.next()
		if schedTrace != nil {
			schedTrace(c, k)
		}
		saved := c.ctx
		c.ctx = c.collCtx()
		err = cur.run()
		c.ctx = saved
	}
	*cur = cursor{} // keeps neither the communicator nor the buffers alive
	c.p.cur = nil
	cursors.Put(cur)
	return err
}

// cursors holds the cursors of the ranks outside a collective. A rank
// holds one only from building a schedule to the end of its run, so the
// cursors alive are those of the ranks inside a collective at once: on a
// rooted gather, whose members send and return, a handful at any size.
var cursors = sync.Pool{New: func() any { return new(cursor) }}

// cursor is a rank's position in the schedule it runs: the step index, the
// message it holds to forward, and the errors so far. A rank takes one
// from cursors for each collective and gives it back at the end. The rank
// drives it through run; on the event engine, while the rank is parked in
// one of its receives, whoever picks the rank drives it through advance,
// on its own stack, without a switch to the rank's coroutine. Both make
// the same calls in the same order, so which rank runs next, the clocks
// and every counter are those of the blocking loop.
type cursor struct {
	sched
	c      *Comm
	i, end int
	st     step // step i
	held   *message
	// before is the clock when the current receive began (the start of
	// the telemetry's recv wait).
	before int64
	// late is the deferred error of a held receive, and the outcome of a
	// cursor that advance drove to its end.
	late error
}

// run drives the cursor on the rank's own stack. A receive that finds the
// cursor completed in place ends the run with what advance left in late.
func (k *cursor) run() error {
	for ; k.i < k.end; k.next() {
		if err := k.local(); err != nil {
			return k.finish(err)
		}
		switch k.st.recv {
		case rNone:
			continue
		case rStream:
			if err := k.stream(); err != nil {
				return k.finish(err)
			}
			continue
		}
		m, err := k.receive()
		if err != nil {
			return k.finish(err)
		}
		if m == nil {
			return k.late
		}
		if err := k.consume(m); err != nil {
			return k.finish(err)
		}
	}
	return k.finish(nil)
}

// next moves the cursor to its next step.
func (k *cursor) next() {
	if k.i++; k.i < k.end {
		k.step(k.i, &k.st)
	}
}

// receive is recvMsg for the current step's message, with one difference
// on the event engine: a rank that must wait parks as this cursor. When
// the cursor completes in place, receive returns (nil, nil). When the rank
// is switched to for any other reason, the cursor may have moved on, and
// the step it is in now — whose copy and send are done — finishes through
// the ordinary blocking take.
func (k *cursor) receive() (*message, error) {
	c, p, st := k.c, k.c.p, &k.st
	if err := c.recvReady(st.from, "recv"); err != nil {
		return nil, err
	}
	k.before = p.clock
	q := &p.queue
	var m *message
	var err error
	if ev := p.world.ev; ev != nil {
		if m, err = q.poll(c, st.from, st.tag); m == nil && err == nil {
			switch ev.parkCursor(p) {
			case evWakeDone:
				return nil, nil
			case evWakeDeadlock:
				return nil, deadlockErr("recv")
			}
		}
	}
	if m == nil && err == nil {
		m, err = q.take(c, st.from, st.tag)
	}
	if err != nil {
		return nil, err
	}
	p.arrive(m, k.before)
	return m, nil
}

// stream carries out the current rStream step.
func (k *cursor) stream() error {
	from := k.st.from
	if from == k.rank {
		return k.sink(from, k.s)
	}
	m, err := k.c.recvMsg(from, k.st.tag)
	if err != nil {
		return err
	}
	err = k.sink(from, m.data[:m.size])
	m.release()
	return err
}

// advance drives the cursor from a wake-up of the rank parked in the
// receive of step i, on the picker's stack: run's calls without the
// blocking, until a receive's message is missing (false: the rank waits
// again) or the schedule is over (true, its outcome in late). The
// scheduler calls it only in a world that has not aborted and has no fault
// tolerance armed, where the wait loop's other checks cannot fire and the
// receive's fault gate is a no-op.
func (k *cursor) advance() bool {
	p := k.c.p
	q := &p.queue
	for {
		b, prev, m := q.find(k.c.ctx, k.st.from, k.st.tag)
		if m == nil {
			return false
		}
		p.arrive(q.remove(b, prev, m), k.before)
		if err := k.consume(m); err != nil {
			k.late = k.finish(err)
			return true
		}
		for {
			if k.next(); k.i == k.end {
				k.late = k.finish(nil)
				return true
			}
			if err := k.local(); err != nil {
				k.late = k.finish(err)
				return true
			}
			if k.st.recv != rNone {
				break
			}
		}
		k.before = p.clock
	}
}

// local carries out the current step's copy and send.
func (k *cursor) local() error {
	st := &k.st
	if st.copies && k.carry {
		copy(k.r[st.off:st.off+st.n], k.s[st.soff:st.soff+st.n])
	}
	if !st.sends {
		return nil
	}
	out := k.held
	switch {
	case out != nil && st.keep:
		out = out.clone()
	case out != nil:
		k.held = nil
	case !k.carry:
		out = ownedMsg(nil, st.sn)
	case st.fromSend:
		out = cloneMsg(k.s[st.soff : st.soff+st.sn])
	default:
		out = cloneMsg(k.r[st.soff : st.soff+st.sn])
	}
	return k.c.send(st.to, st.tag, out, k.c.p.class())
}

// consume takes the current step's message m, charged to the clock
// already.
func (k *cursor) consume(m *message) error {
	st := &k.st
	if st.recv == rFold {
		return k.fold(st, m)
	}
	var buf []byte
	if k.carry {
		buf = k.r[st.off : st.off+st.n]
	}
	var err error
	if st.exact && m.size != st.n {
		err = fmt.Errorf("mpi: message from rank %d and its receive block differ in length (%d vs %d bytes)", m.src, m.size, st.n)
	} else {
		_, err = m.read(buf)
	}
	if !st.hold {
		m.release()
		return err
	}
	k.held = m
	if k.late == nil {
		k.late = err
	}
	return nil
}

// fold consumes the message m of a folding step st.
func (k *cursor) fold(st *step, m *message) error {
	defer m.release()
	if !k.carry {
		if st.intoHeld && k.held == nil {
			k.held = ownedMsg(nil, st.n)
		}
		return nil
	}
	var dst, own []byte
	switch {
	case !st.intoHeld:
		dst = k.r[st.off : st.off+st.n]
		own = dst
	case k.held == nil: // the first fold writes all of the new message
		k.held = getMsg(st.n, true)
		dst, own = k.held.data, k.s[st.off:st.off+st.n]
	default:
		dst, own = k.held.data, k.held.data
	}
	a, b := own, m.data
	if st.left {
		a, b = b, a
	}
	if err := reduceTo(dst, a, b, k.dt, k.op); err != nil {
		return err
	}
	if st.deliver {
		copy(k.r[st.off:st.off+st.n], m.data)
	}
	return nil
}

// finish ends the run with err, or with the deferred error if err is nil;
// the held message, if any, is released.
func (k *cursor) finish(err error) error {
	if k.held != nil {
		k.held.release()
		k.held = nil
	}
	if err != nil {
		return err
	}
	return k.late
}
