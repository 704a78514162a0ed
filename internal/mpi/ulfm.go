package mpi

import (
	"sync/atomic"
	"time"

	"mpimon/internal/faults"
)

// This file is the runtime's fault-tolerance layer, in the image of ULFM
// (User-Level Failure Mitigation): node deaths scheduled by a fault plan
// materialize as failed processes, operations involving a failed process
// return ErrProcFailed instead of hanging, and the application recovers
// with Comm.Revoke / Comm.Shrink / Comm.Agree.
//
// The hot-path contract: a world without a fault plan and without any
// revocation keeps ftOn false, and every check below is one atomic load.

// WithFaultPlan installs a fault plan on the world: the network consults
// it on every transmission and the runtime turns node deaths into process
// failures. A nil plan leaves fault injection disabled.
func WithFaultPlan(p *faults.Plan) Option {
	return func(w *World) { w.fplan = p }
}

// FaultInjector returns the world's fault injector, or nil when no fault
// plan is installed. Use it after a run to read injection statistics.
func (w *World) FaultInjector() *faults.Injector { return w.inj }

// RankFailed reports whether the rank's process has failed (its node died
// and the failure materialized).
func (w *World) RankFailed(rank int) bool { return w.failed[rank].Load() }

// FailedRanks lists the world ranks whose processes have failed so far.
func (w *World) FailedRanks() []int {
	var out []int
	for r := range w.failed {
		if w.failed[r].Load() {
			out = append(out, r)
		}
	}
	return out
}

// DeadNodes lists the topology nodes whose death has materialized (at
// least one rank on them observed it).
func (w *World) DeadNodes() []int {
	w.deadMu.Lock()
	defer w.deadMu.Unlock()
	out := make([]int, 0, len(w.deadNodes))
	for n := range w.deadNodes {
		out = append(out, n)
	}
	return out
}

// Failed reports whether this process has failed. A failed process must
// unwind: every further operation returns ErrProcFailed.
func (p *Proc) Failed() bool { return p.dead }

// initFaults finishes world construction for the fault-tolerance state;
// called by NewWorld after options are applied.
func (w *World) initFaults() error {
	w.failed = make([]atomic.Bool, w.size)
	w.deadNodes = make(map[int]bool)
	w.agreements = make(map[agreeKey]*agreement)
	w.agreeCond.L = &w.agreeMu
	w.shrinks = make(map[shrinkKey]*shrinkState)
	if w.fplan == nil {
		return nil
	}
	inj, err := faults.NewInjector(w.fplan, w.mach.Topo)
	if err != nil {
		return err
	}
	w.inj = inj
	w.net.SetFaultInjector(inj)
	w.ftOn.Store(true)
	return nil
}

// deadCheck materializes this process's scheduled death once its virtual
// clock passes the node's death time. Called (behind the ftOn gate) on
// entry to every communication operation — the runtime is the failure
// detector.
func (w *World) deadCheck(p *Proc, op string) error {
	if p.dead {
		return p.deathErr
	}
	if w.inj != nil && w.inj.DeadAt(p.node, p.clock) {
		return w.markSelfDead(p, op)
	}
	// A sibling on the same node may have materialized the node's death
	// already (its clock ran ahead of ours). The node is gone either way.
	if w.failedCount.Load() > 0 && w.failed[p.rank].Load() {
		return w.markSelfDead(p, op)
	}
	return nil
}

// failRank flips the rank's failed flag; reports whether this call was the
// one that flipped it (so counters are bumped exactly once per rank).
func (w *World) failRank(rank int) bool {
	if !w.failed[rank].CompareAndSwap(false, true) {
		return false
	}
	w.failedCount.Add(1)
	if w.ftm != nil {
		w.ftm.procFailures.Inc()
	}
	return true
}

// markSelfDead records this process's failure and wakes everyone who may
// be blocked on it. Runs on the dying process's own goroutine. Node death
// is total: every process placed on the node fails with it, even those
// whose virtual clocks still lag behind the death time — their failure
// materializes at their next operation via deadCheck or waitErr.
func (w *World) markSelfDead(p *Proc, op string) error {
	if !p.dead {
		p.dead = true
		p.deathErr = failedErr(op, p.rank)
		w.deadMu.Lock()
		w.deadNodes[p.node] = true
		w.deadMu.Unlock()
		w.failRank(p.rank)
		for _, q := range w.procs {
			if q != p && q.node == p.node {
				w.failRank(q.rank)
			}
		}
		w.wakeAll()
	}
	return p.deathErr
}

// wakeAll re-evaluates everything that may be blocked on a failure or
// revocation: queued receivers and pending agreements. Always runs on a
// rank's own goroutine (the one materializing a death or revoking), which
// under the event engine is the current runner — so pushing wake-ups onto
// the heap here is safe.
func (w *World) wakeAll() {
	for _, p := range w.procs {
		p.queue.broadcast()
	}
	w.agreeMu.Lock()
	for _, a := range w.agreements {
		w.trySeal(a)
	}
	w.agreeCond.Broadcast()
	w.agreeMu.Unlock()
	if ev := w.ev; ev != nil {
		ev.wakeAllBlocked()
	}
}

// isRevoked reports whether the user context id has been revoked. Callers
// gate on revCount, so the lock is uncontended until the first Revoke.
func (w *World) isRevoked(ctx int) bool {
	w.revMu.RLock()
	ok := w.revoked[ctx]
	w.revMu.RUnlock()
	return ok
}

// preSend is the fault gate of the send paths (behind ftOn): the sender's
// own death, a revoked communicator, a failed destination.
func (c *Comm) preSend(dstWorld int, op string) error {
	p := c.p
	w := p.world
	if err := w.deadCheck(p, op); err != nil {
		return err
	}
	if w.revCount.Load() > 0 && w.isRevoked(userCtx(c.ctx)) {
		return revokedErr(op)
	}
	if w.failedCount.Load() > 0 && w.failed[dstWorld].Load() {
		return failedErr(op, dstWorld)
	}
	return nil
}

// preRecv is the fault gate of the receive paths (behind ftOn). A failed
// source is not checked here: messages the source sent before dying must
// still be delivered, so the failure surfaces in the queue wait loop only
// once no match is pending.
func (c *Comm) preRecv(op string) error {
	p := c.p
	w := p.world
	if err := w.deadCheck(p, op); err != nil {
		return err
	}
	if w.revCount.Load() > 0 && w.isRevoked(userCtx(c.ctx)) {
		return revokedErr(op)
	}
	return nil
}

// waitErr decides whether a blocked receive must bail out: the world
// aborted checks are done by the caller; here a revocation or a failed
// (potential) sender. With AnySource, any failed member of the
// communicator poisons the wait, as in ULFM's ERR_PROC_FAILED_PENDING.
func (c *Comm) waitErr(src int) error {
	w := c.p.world
	if !w.ftOn.Load() {
		return nil
	}
	if w.failedCount.Load() > 0 && w.failed[c.p.rank].Load() {
		return w.markSelfDead(c.p, "recv")
	}
	if w.revCount.Load() > 0 && w.isRevoked(userCtx(c.ctx)) {
		return revokedErr("recv")
	}
	if w.failedCount.Load() > 0 {
		if src != AnySource {
			if wr := c.group[src]; w.failed[wr].Load() {
				return failedErr("recv", wr)
			}
		} else {
			for _, wr := range c.group {
				if wr != c.p.rank && w.failed[wr].Load() {
					return failedErr("recv", wr)
				}
			}
		}
	}
	return nil
}

// Revoke marks the communicator revoked for the whole world: every pending
// and future point-to-point or collective operation on it, at any member,
// fails with ErrRevoked. It is the ULFM failure-propagation primitive — a
// process that detects a failure revokes the communicator so members that
// never talk to the failed process learn about it too. Local operation
// (returns without waiting for other members); Shrink and Agree still work
// on a revoked communicator.
func (c *Comm) Revoke() error {
	p := c.p
	w := p.world
	if w.inj != nil {
		if err := w.deadCheck(p, "revoke"); err != nil {
			return c.herr(err)
		}
	}
	uc := userCtx(c.ctx)
	w.revMu.Lock()
	if w.revoked == nil {
		w.revoked = make(map[int]bool)
	}
	first := !w.revoked[uc]
	if first {
		w.revoked[uc] = true
		w.revCount.Add(1)
	}
	w.revMu.Unlock()
	if first {
		w.ftOn.Store(true)
		if w.ftm != nil {
			w.ftm.revokes.Inc()
		}
		w.wakeAll()
	}
	return nil
}

// agreeKey identifies one agreement instance: a context id plus a per-
// communicator sequence number (Shrink uses the fresh context of the
// shrunken communicator with seq -1, which cannot collide with Agree's
// non-negative sequences).
type agreeKey struct {
	ctx, seq int
}

// agreement is one in-flight Comm.Agree instance, shared by the members.
type agreement struct {
	group    []int // world ranks expected to contribute
	got      map[int]uint32
	sealed   bool
	and      uint32
	deadRank int // a failed member observed at seal time, -1 if none
	clockMax int64
	returned int
	expect   int
}

// trySeal seals the agreement when every member has either contributed or
// failed. Must hold agreeMu.
func (w *World) trySeal(a *agreement) {
	if a.sealed {
		return
	}
	and := ^uint32(0)
	dead := -1
	for _, wr := range a.group {
		if v, ok := a.got[wr]; ok {
			and &= v
			continue
		}
		if w.failed[wr].Load() {
			if dead < 0 {
				dead = wr
			}
			continue
		}
		return // a live member has not arrived yet
	}
	if dead < 0 {
		// A member that contributed and failed afterwards still makes
		// the agreement report the failure, consistently for everyone.
		for _, wr := range a.group {
			if w.failed[wr].Load() {
				dead = wr
				break
			}
		}
	}
	a.and = and
	a.deadRank = dead
	a.sealed = true
	a.expect = len(a.got)
	w.agreeCond.Broadcast()
	if ev := w.ev; ev != nil {
		// The sealer is the current runner; schedule the parked members at
		// the agreement's synchronized clock.
		ev.wakeRanks(a.group, a.clockMax)
	}
}

// groupAgree runs one agreement instance for this process: contribute
// flag, block until the instance seals, and return the AND of the live
// contributions plus a failed member if the seal observed one. The result
// is identical for every returning member.
func (w *World) groupAgree(key agreeKey, group []int, p *Proc, flag uint32) (and uint32, deadRank int, err error) {
	w.agreeMu.Lock()
	a := w.agreements[key]
	if a == nil {
		a = &agreement{group: append([]int(nil), group...), got: make(map[int]uint32), deadRank: -1}
		w.agreements[key] = a
	}
	a.got[p.rank] = flag
	if p.clock > a.clockMax {
		a.clockMax = p.clock
	}
	w.trySeal(a)
	for !a.sealed {
		if w.aborted.Load() {
			w.agreeMu.Unlock()
			return 0, -1, ErrAborted
		}
		if ev := w.ev; ev != nil {
			// Event engine: drop the lock before parking — the next runner
			// may be the member whose contribution seals this agreement.
			w.agreeMu.Unlock()
			if ev.park(p, -1) == evWakeDeadlock {
				return 0, -1, deadlockErr("agree")
			}
			w.agreeMu.Lock()
			continue
		}
		w.agreeCond.Wait()
	}
	and, deadRank = a.and, a.deadRank
	cm := a.clockMax
	a.returned++
	if a.returned == a.expect {
		delete(w.agreements, key)
	}
	w.agreeMu.Unlock()
	// The agreement synchronizes the members: advance to the latest
	// contributor, like a barrier would.
	if cm > p.clock {
		p.clock = cm
	}
	return and, deadRank, nil
}

// Agree performs a fault-tolerant agreement over the communicator
// (MPI_Comm_agree): it returns the bitwise AND of the flag contributed by
// every live member, identically at every member, even in the presence of
// failed processes. If any member has failed, every caller additionally
// gets ErrProcFailed — after the uniform result, so the members can still
// decide together. Agree works on a revoked communicator; it is the tool
// to decide "did everyone finish the iteration?" after an error.
func (c *Comm) Agree(flag uint32) (uint32, error) {
	p := c.p
	t0 := p.enterMPI()
	defer p.leaveMPI(t0)
	defer c.span("agree")()
	w := p.world
	if w.ftOn.Load() {
		if err := w.deadCheck(p, "agree"); err != nil {
			return 0, c.herr(err)
		}
	}
	seq := c.agreeSeq
	c.agreeSeq++
	and, dead, err := w.groupAgree(agreeKey{ctx: c.ctx, seq: seq}, c.group, p, flag)
	if err != nil {
		return 0, c.herr(err)
	}
	p.clock += int64(w.mach.SendOverhead) + int64(w.mach.RecvOverhead)
	if dead >= 0 {
		return and, c.herr(failedErr("agree", dead))
	}
	return and, nil
}

// shrinkKey identifies one Shrink instance on a parent communicator.
type shrinkKey struct {
	parent, seq int
}

// shrinkState is the survivor snapshot of one Shrink instance: the first
// member to arrive takes it, everyone else adopts it, which is what makes
// the shrunken group identical at every member.
type shrinkState struct {
	group []int
	ctx   int
}

func (w *World) shrinkSnapshot(parent, seq int, members []int) *shrinkState {
	w.shrinkMu.Lock()
	defer w.shrinkMu.Unlock()
	k := shrinkKey{parent: parent, seq: seq}
	if s, ok := w.shrinks[k]; ok {
		return s
	}
	var group []int
	for _, wr := range members {
		if !w.failed[wr].Load() {
			group = append(group, wr)
		}
	}
	w.ctxMu.Lock()
	ctx := w.ctxSeq
	w.ctxSeq++
	w.ctxMu.Unlock()
	s := &shrinkState{group: group, ctx: ctx}
	w.shrinks[k] = s
	return s
}

// Shrink builds a new communicator containing the surviving members of
// this one (MPI_Comm_shrink): the failed processes are excluded, ranks are
// compacted preserving order, and the result is agreed on so every
// survivor holds the same group. If a member dies while the shrink is in
// flight, the instance is retried with a fresh snapshot — Shrink only
// returns an error when the world aborts or the calling process itself is
// failed. Collective over the surviving members; works on a revoked
// communicator (the point of revoking is to funnel everyone here).
func (c *Comm) Shrink() (*Comm, error) {
	p := c.p
	t0 := p.enterMPI()
	defer p.leaveMPI(t0)
	defer c.span("shrink")()
	w := p.world
	if w.ftOn.Load() {
		if err := w.deadCheck(p, "shrink"); err != nil {
			return nil, c.herr(err)
		}
	}
	lastDead := -1
	for attempt := 0; attempt <= len(c.group); attempt++ {
		seq := c.shrinkSeq
		c.shrinkSeq++
		s := w.shrinkSnapshot(c.ctx, seq, c.group)
		myRank := -1
		for i, wr := range s.group {
			if wr == c.group[c.rank] {
				myRank = i
				break
			}
		}
		if myRank < 0 {
			// Excluded from the snapshot: only possible for a failed
			// process racing its own death materialization.
			return nil, c.herr(failedErr("shrink", c.group[c.rank]))
		}
		_, dead, err := w.groupAgree(agreeKey{ctx: s.ctx, seq: -1}, s.group, p, 1)
		if err != nil {
			return nil, c.herr(err)
		}
		p.clock += int64(w.mach.SendOverhead) + int64(w.mach.RecvOverhead)
		if dead < 0 {
			if w.ftm != nil && myRank == 0 {
				w.ftm.shrinks.Inc()
			}
			return &Comm{p: p, ctx: s.ctx, group: append([]int(nil), s.group...), rank: myRank, errh: c.errh}, nil
		}
		// A snapshot member died mid-shrink: every survivor observed the
		// same sealed failure, so everyone retries with a fresh snapshot.
		lastDead = dead
	}
	return nil, c.herr(failedErr("shrink", lastDead))
}

// RecvTimeout is Recv with a deadline: if no matching message arrives
// within d, it returns ErrTimeout without consuming anything. It is the
// receiver-side tool for lossy links (a fault plan with DropProb): a
// sender's message may never arrive, and the timeout turns that silence
// into an error the application can retry on.
//
// The deadline is wall clock under the goroutine engine and virtual under
// the event engine (the wait expires when this rank's virtual clock would
// reach now+d, advancing the clock to the deadline) — the event engine has
// no wall time, which is what makes its runs replayable.
func (c *Comm) RecvTimeout(src, tag int, buf []byte, d time.Duration) (Status, error) {
	t0 := c.p.enterMPI()
	defer c.p.leaveMPI(t0)
	if err := c.recvReady(src, "recv"); err != nil {
		return Status{}, c.herr(err)
	}
	p := c.p
	before := p.clock
	m, err := p.queue.takeDeadline(c, src, tag, d)
	if err != nil {
		return Status{}, c.herr(err)
	}
	p.arrive(m, before)
	st, err := m.deliver(buf)
	return st, c.herr(err)
}
