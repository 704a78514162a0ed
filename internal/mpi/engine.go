package mpi

import (
	"errors"
	"fmt"
	"iter"
	"log"
	"math"
	"sync"

	"mpimon/internal/netsim/event"
)

// Engine is the execution strategy of a World.Run: how the np rank programs
// are driven against the shared virtual-time state. Both engines present the
// exact same Comm API and — on configurations where the goroutine engine is
// itself deterministic — the exact same results; they differ in how a
// blocked rank waits.
//
//   - The goroutine engine (the original runtime) runs every rank as a free
//     goroutine; a blocked receive parks on a condition variable and the Go
//     scheduler interleaves ranks arbitrarily.
//   - The event engine runs every rank as a coroutine of one dispatcher,
//     driven off a central virtual-time event heap: exactly one rank
//     executes at a time, a rank reaching a blocking point pops the heap
//     itself and either keeps running (the next event is its own) or
//     switches to the dispatcher, which switches to the rank the event
//     names, and wake-ups dispatch in deterministic (time, rank, seq)
//     order. A rank parked in a collective is advanced in place, as its
//     schedule cursor, by whoever pops its event, without a switch
//     (coll_sched.go). No host-level synchronization is left between
//     ranks (queues take no lock, nothing is broadcast), every run is
//     bit-replayable, a cyclic wait is an immediate deadlock error instead
//     of a hang, and worlds scale to 10⁴–10⁵ ranks (see
//     docs/PERFORMANCE.md).
type Engine interface {
	// Name returns the engine's flag name ("goroutine" or "event").
	Name() string
	// run executes fn on every rank of the world and returns the joined
	// error, with the same aggregation semantics for both engines.
	run(w *World, fn func(c *Comm) error) error
}

// EngineGoroutine is the original goroutine-per-rank engine.
var EngineGoroutine Engine = goroutineEngine{}

// EngineEvent is the discrete-event engine: ranks scheduled off a central
// virtual-time heap, one at a time.
var EngineEvent Engine = eventEngine{}

// EngineAutoThreshold is the world size above which NewWorld selects the
// event engine when no explicit WithEngine option was given. Below it the
// goroutine engine remains the default (it exploits host parallelism, which
// wins on small worlds with heavy per-rank compute).
const EngineAutoThreshold = 8192

// EngineByName resolves an -engine flag value. "auto" (and "") yield nil,
// which WithEngine interprets as automatic selection by world size.
func EngineByName(name string) (Engine, error) {
	switch name {
	case "", "auto":
		return nil, nil
	case "goroutine":
		return EngineGoroutine, nil
	case "event":
		return EngineEvent, nil
	default:
		return nil, fmt.Errorf("mpi: unknown engine %q (want goroutine, event or auto)", name)
	}
}

// WithEngine selects the world's execution engine. A nil engine (the
// default) selects automatically: the goroutine engine up to
// EngineAutoThreshold ranks, the event engine above.
func WithEngine(e Engine) Option {
	return func(w *World) { w.eng = e }
}

// autoEngineOnce makes the automatic large-world engine switch announce
// itself exactly once per process, so batch sweeps do not spam the log.
var autoEngineOnce sync.Once

// pickEngine finalizes the world's engine after options were applied.
func (w *World) pickEngine() {
	if w.eng != nil {
		return
	}
	if w.size > EngineAutoThreshold {
		autoEngineOnce.Do(func() {
			log.Printf("mpi: world of %d ranks exceeds %d, selecting the event engine (WithEngine overrides)",
				w.size, EngineAutoThreshold)
		})
		w.eng = EngineEvent
		return
	}
	w.eng = EngineGoroutine
}

// Engine returns the engine the world runs on.
func (w *World) Engine() Engine { return w.eng }

// EngineStats describes one completed (or running) Run's scheduling work.
type EngineStats struct {
	// Events is the number of scheduler dispatches (event engine; zero for
	// the goroutine engine, which has no central dispatcher).
	Events uint64
	// Switches is the number of dispatches that switched to the rank's
	// coroutine: the others resumed the parking rank itself or advanced a
	// collective's schedule cursor in place (zero for the goroutine engine).
	Switches uint64
}

// EngineStats returns the world's scheduling statistics.
func (w *World) EngineStats() EngineStats {
	if w.ev == nil {
		return EngineStats{}
	}
	return EngineStats{Events: w.ev.events, Switches: w.ev.switches}
}

// rankBody runs one rank's program with the shared recover/abort wrapper.
func (w *World) rankBody(rank int, fn func(c *Comm) error, errs []error) {
	defer func() {
		if rec := recover(); rec != nil {
			errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, rec)
		}
		// A rank exiting because its own node died is a planned failure the
		// survivors can recover from, not a reason to tear the world down.
		if errs[rank] != nil && !w.RankFailed(rank) {
			w.abort()
		}
	}()
	errs[rank] = fn(w.worldComm(rank))
}

// collectErrs reports real failures: not the ErrAborted fallout they caused
// on other ranks, and not the deaths of ranks a fault plan killed (their
// ErrProcFailed exit is the expected way out) — unless fallout is all there
// is.
func (w *World) collectErrs(errs []error) error {
	var real []error
	for r, e := range errs {
		if e == nil || errors.Is(e, ErrAborted) {
			continue
		}
		if w.RankFailed(r) && errors.Is(e, ErrProcFailed) {
			continue
		}
		real = append(real, e)
	}
	if len(real) > 0 {
		return errors.Join(real...)
	}
	if w.aborted.Load() {
		return errors.Join(errs...)
	}
	return nil
}

// goroutineEngine is the original execution strategy: one free-running
// goroutine per rank, blocking on condition variables.
type goroutineEngine struct{}

func (goroutineEngine) Name() string { return "goroutine" }

func (goroutineEngine) run(w *World, fn func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			w.rankBody(rank, fn, errs)
		}(r)
	}
	wg.Wait()
	return w.collectErrs(errs)
}

// eventEngine executes the world as a discrete-event simulation.
type eventEngine struct{}

func (eventEngine) Name() string { return "event" }

func (eventEngine) run(w *World, fn func(c *Comm) error) error {
	s := &evScheduler{w: w, ranks: make([]evRankState, w.size)}
	w.ev = s
	return s.run(fn)
}

// evWake is the reason a parked rank was resumed.
type evWake uint8

const (
	// evWakeRun: something the rank may be waiting on changed; re-evaluate.
	evWakeRun evWake = iota
	// evWakeTimeout: the virtual deadline of the wait passed.
	evWakeTimeout
	// evWakeDeadlock: the heap is empty and every live rank is parked — the
	// wait can never be satisfied.
	evWakeDeadlock
	// evWakeDone: the rank was parked as its schedule cursor, and the
	// cursor completed in place; the rank only returns from the collective.
	evWakeDone
)

// evPick is a scheduling decision: the parked rank to resume next, and why.
type evPick struct {
	rank   int
	reason evWake
}

// evRankState is the scheduler's per-rank bookkeeping.
//
// Concurrency discipline: each rank is a coroutine (iter.Pull) of the
// dispatcher, the goroutine that called Run. At any instant exactly one of
// them runs — the dispatcher or the single dispatched rank — and control
// moves only through next (dispatcher → rank) and yield (rank →
// dispatcher), each a direct runtime coroswitch that carries the
// happens-before edge. All scheduler state (the heap, these fields, other
// ranks' clocks) and every rank's message queue are therefore accessed
// data-race-free without locks; `go test -race` holds the proof, iter.Pull
// being annotated for the detector. A schedule cursor advanced in place
// (pickSwitch) is another rank's state touched by the current runner, under
// the same discipline.
type evRankState struct {
	// next resumes the rank until it parks (true, with the pick it made) or
	// its program returns (false); yield, the rank's side, hands that pick
	// to the dispatcher and returns when the rank is dispatched again. Both
	// are nil until the first dispatch creates the coroutine.
	next  func() (evPick, bool)
	yield func(evPick) bool
	// waitID is the generation of the rank's current (or next) wait; heap
	// items stamped with an older generation are stale and skipped.
	waitID uint64
	// wakeAt is the time of the Wake the current wait already has on the
	// heap, noWake if none (see wake).
	wakeAt int64
	// reason is why the dispatcher last resumed the rank.
	reason evWake
	// blocked is true while the rank is parked waiting for a dispatch; a
	// rank whose program has returned is never parked again.
	blocked bool
	// inCursor marks a rank parked as its schedule cursor (Proc.cur),
	// which the picker may advance in place (see pickSwitch).
	inCursor bool
	// wantAny marks a park that any arrival may unblock (agreement waits);
	// otherwise (wantCtx, wantSrc, wantTag) is the message envelope of the
	// receive the rank parked in, and noteArrival only wakes it for a
	// matching arrival. Without the filter a gather root parked on a
	// specific source is woken — and rescans its whole queue — once per
	// arrival from anyone, which turns an np-wide fan-in into O(np²)
	// message-match work.
	wantAny                   bool
	wantCtx, wantSrc, wantTag int
}

// evScheduler drives one Run of the event engine.
type evScheduler struct {
	w     *World
	q     event.Queue
	ranks []evRankState
	// events counts dispatches, the engine's work metric (events/sec);
	// switches counts those that switched to the rank's coroutine.
	events, switches uint64
	live             int
	// cursor is a lower bound on the lowest parked rank: no rank below it
	// is parked. It lets an aborted world of np ranks unwind in O(np), not
	// O(np²) rescans from rank 0.
	cursor int
}

func (s *evScheduler) run(fn func(c *Comm) error) error {
	w := s.w
	errs := make([]error, w.size)
	s.live = w.size
	// Seed: every rank becomes runnable at virtual time zero, in rank
	// order (the deterministic tie-break).
	for r := range s.ranks {
		s.ranks[r] = evRankState{blocked: true, wakeAt: noWake} // waiting for the initial dispatch
		s.wake(r, 0)
	}
	for p := s.pickSwitch(); ; {
		st := &s.ranks[p.rank]
		if st.next == nil {
			// The rank's goroutine is merely the carrier of its stack, so
			// it is created when the rank first has something to run.
			rank := p.rank
			st.next, _ = iter.Pull(func(yield func(evPick) bool) {
				st.yield = yield
				w.rankBody(rank, fn, errs)
			})
		}
		if st.blocked { // a cursor pickSwitch completed is resumed already
			s.resume(st, p.reason)
		}
		s.switches++
		next, parked := st.next()
		if !parked { // the program returned; a parking rank picks its successor itself
			st.next, st.yield = nil, nil // drops the coroutine's state
			if s.live--; s.live == 0 {
				return w.collectErrs(errs)
			}
			next = s.pickSwitch()
		}
		p = next
	}
}

// pick decides which parked rank runs next. Live heap items dispatch in
// (time, rank, seq) order; stale ones — the rank moved on from the wait the
// item was stamped with — are dropped (lazy deletion). With no live item
// every live rank is parked on a wait nothing will ever satisfy: the
// deadlock surfaces on the lowest parked rank. Its error aborts the world,
// and an aborted world ignores the heap and unwinds its parked ranks lowest
// first. Called by the current runner: the dispatcher, or a rank that has
// just marked itself parked.
func (s *evScheduler) pick() evPick {
	aborted := s.w.aborted.Load()
	for !aborted && s.q.Len() > 0 {
		it := s.q.Pop()
		st := &s.ranks[it.Rank]
		if !st.blocked || it.ID != st.waitID {
			continue
		}
		if it.Kind == event.Timeout {
			return evPick{int(it.Rank), evWakeTimeout}
		}
		return evPick{int(it.Rank), evWakeRun}
	}
	// The scan cannot run off the end: whoever picks is a parked rank or
	// the dispatcher of a world whose live ranks are all parked.
	for !s.ranks[s.cursor].blocked {
		s.cursor++
	}
	if aborted {
		return evPick{s.cursor, evWakeRun}
	}
	return evPick{s.cursor, evWakeDeadlock}
}

// pickSwitch picks the rank to switch to. A rank parked as its schedule
// cursor, picked on an ordinary wake — no deadlock, timeout or abort, and
// no fault tolerance armed — is dispatched here instead, on the picker's
// stack: resume counts the dispatch and the cursor advances in place. If
// the message of its next receive is missing, the rank parks again, in
// that receive, as it would have on its own stack, and the pick goes on;
// if the schedule is over, the rank is the one to switch to, already
// resumed, with reason evWakeDone. Called by the current runner, as pick.
func (s *evScheduler) pickSwitch() evPick {
	for {
		p := s.pick()
		st := &s.ranks[p.rank]
		if !st.inCursor || p.reason != evWakeRun || s.w.aborted.Load() || s.w.ftOn.Load() {
			return p
		}
		s.resume(st, p.reason)
		k := s.w.procs[p.rank].cur
		if k.advance() {
			st.reason = evWakeDone
			return p
		}
		st.blocked = true // parkCursor's park, in the next receive
		s.cursor = min(s.cursor, p.rank)
		st.wantSrc, st.wantTag = k.st.from, k.st.tag
	}
}

// resume marks a parked rank running again and counts the dispatch.
func (s *evScheduler) resume(st *evRankState, reason evWake) {
	st.blocked = false
	// Bump the generation so wake-ups aimed at the wait that just ended
	// die on the heap; events pushed from here on target the next park.
	st.waitID++
	st.wakeAt = noWake
	s.events++
	st.reason = reason
}

// park suspends the calling rank until it is dispatched again, returning
// the wake reason. Runs on the rank's coroutine, which is the current
// runner; deadlineAt ≥ 0 additionally schedules a Timeout at that virtual
// time for the wait that starts now. The caller must hold no locks shared
// with other ranks.
func (s *evScheduler) park(p *Proc, deadlineAt int64) evWake {
	s.ranks[p.rank].wantAny = true
	return s.parkYield(p, deadlineAt)
}

// parkRecv is park for a message wait: only an arrival matching the
// (ctx, src, tag) envelope wakes the rank (wildcards as in message.matches).
func (s *evScheduler) parkRecv(p *Proc, deadlineAt int64, ctx, src, tag int) evWake {
	st := &s.ranks[p.rank]
	st.wantAny = false
	st.wantCtx, st.wantSrc, st.wantTag = ctx, src, tag
	return s.parkYield(p, deadlineAt)
}

// parkCursor parks the rank in a receive of its schedule cursor, as the
// cursor: parkRecv with the receive's envelope, except that a pick may
// advance the cursor in place (see pickSwitch). It returns evWakeDone when
// the cursor completed in place, else the reason the rank was resumed for.
func (s *evScheduler) parkCursor(p *Proc) evWake {
	st, k := &s.ranks[p.rank], p.cur
	st.inCursor = true
	why := s.parkRecv(p, -1, k.c.ctx, k.st.from, k.st.tag)
	st.inCursor = false
	return why
}

// parkYield parks the rank and makes the scheduling decision itself: when
// the next rank to run is the parking rank (its message is already on the
// way, its timeout is the earliest event) it keeps running without a
// switch; otherwise it hands the pick to the dispatcher.
func (s *evScheduler) parkYield(p *Proc, deadlineAt int64) evWake {
	st := &s.ranks[p.rank]
	if deadlineAt >= 0 {
		s.q.Push(deadlineAt, int32(p.rank), st.waitID, event.Timeout)
	}
	st.blocked = true
	s.cursor = min(s.cursor, p.rank)
	if next := s.pickSwitch(); next.rank != p.rank {
		st.yield(next)
	} else if st.blocked { // not a cursor pickSwitch completed in place
		s.resume(st, next.reason)
	}
	return st.reason
}

// yieldPoll runs every event earlier than the calling rank's clock before
// a poll that found nothing returns (pollMissed). A rank that polls never
// parks, so without this a rank it polls for, which has not run yet, would
// never run. The rank parks behind those events with a Wake at its own
// clock, which orders it among them in (time, rank, seq) order; a message
// arriving meanwhile finds that Wake pending and adds none. Runs on the
// rank's coroutine, which is the current runner.
func (s *evScheduler) yieldPoll(p *Proc) {
	if s.q.Len() == 0 || s.q.Peek().Time >= p.clock {
		return
	}
	s.ranks[p.rank].blocked = true
	s.wake(p.rank, p.clock)
	s.park(p, -1)
}

// noteArrival schedules a wake-up for the owner of a queue that just
// received a message, if it is parked in a wait this message can satisfy:
// it becomes runnable when the message arrives (or immediately, if its
// clock is already past the arrival). Called by the sending rank, i.e. the
// current runner.
func (s *evScheduler) noteArrival(p *Proc, m *message) {
	st := &s.ranks[p.rank]
	if !st.blocked {
		return
	}
	if !st.wantAny && !m.matches(st.wantCtx, st.wantSrc, st.wantTag) {
		return
	}
	s.wake(p.rank, max(p.clock, m.arrival))
}

// wakeRanks schedules a wake-up for every parked rank in group whose
// re-evaluation may now succeed (agreement seal), at no earlier than at.
// Called by the current runner.
func (s *evScheduler) wakeRanks(group []int, at int64) {
	for _, r := range group {
		s.wake(r, max(s.w.procs[r].clock, at))
	}
}

// wakeAllBlocked schedules a wake-up for every parked rank (failure and
// revocation propagation). Called by the current runner.
func (s *evScheduler) wakeAllBlocked() {
	for r := range s.ranks {
		s.wake(r, s.w.procs[r].clock)
	}
}

// noWake is evRankState.wakeAt when the current wait has no Wake pending.
const noWake = math.MaxInt64

// wake schedules a Wake of rank r at virtual time t if the rank is parked,
// unless its current wait already has a Wake pending at or before t. That
// item pops first (an earlier time, or the same time and a smaller seq)
// and ends the wait, if a Timeout has not ended it sooner, so the new one
// could only pop stale. Skipping it shifts later seq values but not the
// relative order of the items that remain: dispatch order and the event
// count are those of one push per call. (In a halo, a rank parked in
// Recv(AnySource) is the target of one call per neighbour.)
func (s *evScheduler) wake(r int, t int64) {
	st := &s.ranks[r]
	if !st.blocked || st.wakeAt <= t {
		return
	}
	st.wakeAt = t
	s.q.Push(t, int32(r), st.waitID, event.Wake)
}
