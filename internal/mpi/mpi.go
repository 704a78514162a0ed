// Package mpi is a message-passing runtime in the image of MPI, built for
// studying communication behaviour rather than raw speed: every rank is a
// goroutine (under the event engine a coroutine, one running at a time),
// and time is virtual. Each process carries a logical clock in
// nanoseconds; sending and receiving advance it according to the netsim
// cost model, so the communication time of a program is a deterministic
// function of the process placement on the machine's topology — which is
// exactly what the paper's rank-reordering optimization manipulates.
//
// The API mirrors MPI: point-to-point Send/Recv with tags and wildcards,
// nonblocking Isend/Irecv with requests, communicators with Split/Dup,
// collective operations (decomposed internally into point-to-point
// messages, which is where the pml monitoring layer observes them), and
// one-sided windows with active-target fences.
package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mpimon/internal/faults"
	"mpimon/internal/netsim"
	"mpimon/internal/pml"
	"mpimon/internal/telemetry"
)

// Wildcards for Recv/Probe source and tag arguments.
const (
	AnySource = -1
	AnyTag    = -1
)

// World is one simulated MPI job: a machine, a placement of ranks onto
// cores, and the shared transport state. Build it with NewWorld, then call
// Run exactly once with the program every rank executes.
type World struct {
	mach      *netsim.Machine
	net       *netsim.Network
	size      int
	placement []int
	procs     []*Proc
	level     pml.Level
	tel       *telemetry.Telemetry

	// eng is the execution engine (engine.go); ev is non-nil while (and
	// after) Run executes on the event engine.
	eng Engine
	ev  *evScheduler

	// worldGroup is the identity comm-rank-to-world-rank mapping shared by
	// every rank's COMM_WORLD handle. Sharing one slice instead of building
	// one per rank matters at scale: 65536 ranks would otherwise hold
	// 65536 copies of a 512 KiB slice (32 GiB). Never mutated after
	// NewWorld.
	worldGroup []int

	ctxMu   sync.Mutex
	ctxSeq  int
	ctxKeys map[splitKey]int

	aborted atomic.Bool
	ran     bool

	// Fault-tolerance state (ulfm.go). ftOn is the single hot-path gate:
	// false until a fault plan is installed or a communicator is revoked,
	// and every fault check hides behind it.
	fplan       *faults.Plan
	inj         *faults.Injector
	ftOn        atomic.Bool
	failed      []atomic.Bool
	failedCount atomic.Int32
	revMu       sync.RWMutex
	revoked     map[int]bool
	revCount    atomic.Int32
	deadMu      sync.Mutex
	deadNodes   map[int]bool
	agreeMu     sync.Mutex
	agreeCond   sync.Cond
	agreements  map[agreeKey]*agreement
	shrinkMu    sync.Mutex
	shrinks     map[shrinkKey]*shrinkState
	ftm         *ftMetrics
}

// ErrAborted is returned by blocked operations when another rank of the
// world failed (returned an error or panicked), so the program cannot make
// progress; it prevents collective failures from deadlocking the run.
var ErrAborted = errors.New("mpi: world aborted because another rank failed")

type splitKey struct {
	parent int
	seq    int
	color  int
}

// Option configures a World at construction time.
type Option func(*World)

// WithPlacement maps rank i onto core placement[i]. The default is the
// packed ("standard") placement: rank i on core i.
func WithPlacement(placement []int) Option {
	return func(w *World) { w.placement = append([]int(nil), placement...) }
}

// WithMonitoringLevel sets the initial pml monitoring level of every rank
// (default pml.Distinct). Use pml.Disabled for overhead baselines.
func WithMonitoringLevel(l pml.Level) Option {
	return func(w *World) { w.level = l }
}

// NewWorld creates a world of np ranks on the given machine.
func NewWorld(mach *netsim.Machine, np int, opts ...Option) (*World, error) {
	if np <= 0 {
		return nil, fmt.Errorf("mpi: world size %d must be positive", np)
	}
	net, err := netsim.NewNetwork(mach)
	if err != nil {
		return nil, err
	}
	w := &World{mach: mach, net: net, size: np, level: pml.Distinct, ctxKeys: make(map[splitKey]int), ctxSeq: 1}
	for _, o := range opts {
		o(w)
	}
	if w.placement == nil {
		w.placement = make([]int, np)
		for i := range w.placement {
			w.placement[i] = i
		}
	}
	if err := validatePlacement(w.placement, np, mach.Topo.Leaves()); err != nil {
		return nil, err
	}
	if err := w.initFaults(); err != nil {
		return nil, err
	}
	w.pickEngine()
	w.worldGroup = make([]int, np)
	for i := range w.worldGroup {
		w.worldGroup[i] = i
	}
	w.procs = make([]*Proc, np)
	for r := 0; r < np; r++ {
		w.procs[r] = newProc(w, r)
	}
	if w.tel != nil {
		w.wireTelemetry()
	}
	return w, nil
}

func validatePlacement(placement []int, np, cores int) error {
	if len(placement) != np {
		return fmt.Errorf("mpi: placement has %d entries for %d ranks", len(placement), np)
	}
	seen := make(map[int]int, np)
	for r, c := range placement {
		if c < 0 || c >= cores {
			return fmt.Errorf("mpi: rank %d placed on core %d, machine has %d cores", r, c, cores)
		}
		if prev, dup := seen[c]; dup {
			return fmt.Errorf("mpi: ranks %d and %d both placed on core %d", prev, r, c)
		}
		seen[c] = r
	}
	return nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Machine returns the performance model.
func (w *World) Machine() *netsim.Machine { return w.mach }

// Network returns the shared transport state (NIC counters etc.).
func (w *World) Network() *netsim.Network { return w.net }

// Placement returns a copy of the rank-to-core mapping.
func (w *World) Placement() []int { return append([]int(nil), w.placement...) }

// Proc returns the process object of a rank (valid after NewWorld; mainly
// for post-run inspection of clocks and counters).
func (w *World) Proc(rank int) *Proc { return w.procs[rank] }

// MaxClock returns the largest per-rank virtual clock, i.e. the virtual
// makespan of the program run so far.
func (w *World) MaxClock() time.Duration {
	var m int64
	for _, p := range w.procs {
		if p.clock > m {
			m = p.clock
		}
	}
	return time.Duration(m)
}

// Run executes fn on every rank of the world — with that rank's COMM_WORLD
// — and waits for all of them, using the world's engine (goroutine-per-rank
// by default, discrete-event above EngineAutoThreshold ranks or with
// WithEngine). Panics inside fn are recovered and reported as errors. Run
// may be called only once per World.
func (w *World) Run(fn func(c *Comm) error) error {
	if w.ran {
		return errors.New("mpi: World.Run called twice")
	}
	w.ran = true
	return w.eng.run(w, fn)
}

// abort wakes every rank blocked in a receive so the world can unwind
// after a failure. Only the first call does the waking: every rank that
// leaves with ErrAborted calls it again, and np broadcasts from each of np
// ranks made the unwinding quadratic.
func (w *World) abort() {
	if w.aborted.Swap(true) {
		return
	}
	for _, p := range w.procs {
		// Passing through the lock orders the flag before a waiter that
		// has checked it and not yet reached cond.Wait: with a single
		// round of broadcasts that waiter would otherwise sleep forever.
		p.queue.mu.Lock()
		p.queue.mu.Unlock()
		p.queue.cond.Broadcast()
	}
	w.agreeMu.Lock()
	w.agreeCond.Broadcast()
	w.agreeMu.Unlock()
}

// RunWithTimeout is Run with a watchdog: if the program has not completed
// after d of wall time (for instance because of a receive that can never
// match), it returns an error. The stuck goroutines are leaked; use this in
// tests only.
func (w *World) RunWithTimeout(d time.Duration, fn func(c *Comm) error) error {
	done := make(chan error, 1)
	go func() { done <- w.Run(fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("mpi: run did not complete within %v (deadlock?)", d)
	}
}

func (w *World) worldComm(rank int) *Comm {
	// Every rank shares the world's identity group slice; Comm never
	// mutates its group after construction, so sharing is safe and keeps
	// COMM_WORLD O(1) memory per rank.
	return &Comm{p: w.procs[rank], ctx: 0, group: w.worldGroup, rank: rank}
}

// splitCtx returns the context id shared by all members of the communicator
// created by the seq-th Split of parent with the given color.
func (w *World) splitCtx(parent, seq, color int) int {
	w.ctxMu.Lock()
	defer w.ctxMu.Unlock()
	k := splitKey{parent: parent, seq: seq, color: color}
	if id, ok := w.ctxKeys[k]; ok {
		return id
	}
	id := w.ctxSeq
	w.ctxSeq++
	w.ctxKeys[k] = id
	return id
}

// Proc is one MPI process: a goroutine with a virtual clock, an incoming
// message queue and a monitoring component. All Proc methods must be called
// from the goroutine that owns the process (the one Run started), except
// the read-only accessors used after Run returns.
type Proc struct {
	world *World
	rank  int
	core  int
	node  int // topology node of core (fault-plan death checks)

	clock    int64 // virtual ns
	queue    msgQueue
	mon      *pml.Monitor
	internal int   // >0 while executing inside a collective implementation
	mpiTime  int64 // virtual ns spent in top-level MPI calls
	rng      *rand.Rand
	cur      *cursor // the collective schedule cursor, while the rank is in a collective

	// dead and deathErr record this process's own materialized failure;
	// owned by the process goroutine.
	dead     bool
	deathErr error

	// tr and tm are nil unless the world was built WithTelemetry; every
	// telemetry hook guards on that, which is the whole disabled fast path.
	tr *telemetry.Rank
	tm *rankMetrics
}

func newProc(w *World, rank int) *Proc {
	p := &Proc{
		world: w,
		rank:  rank,
		core:  w.placement[rank],
		node:  w.mach.Topo.NodeOf(w.placement[rank]),
		mon:   pml.NewMonitor(w.size, w.level),
	}
	p.queue.init(p, &w.aborted)
	return p
}

// Rank returns the world rank.
func (p *Proc) Rank() int { return p.rank }

// Core returns the core (topology leaf) the process runs on.
func (p *Proc) Core() int { return p.core }

// World returns the enclosing world.
func (p *Proc) World() *World { return p.world }

// Monitor exposes the process's pml monitoring component.
func (p *Proc) Monitor() *pml.Monitor { return p.mon }

// Clock returns the process's virtual time.
func (p *Proc) Clock() time.Duration { return time.Duration(p.clock) }

// MPITime returns the virtual time this process has spent inside MPI calls
// (communication time), the quantity the paper's Fig. 7b reports.
func (p *Proc) MPITime() time.Duration { return time.Duration(p.mpiTime) }

// Rand returns the process's deterministic, rank-seeded random source. It
// is built on first use — a rand.Rand costs ~5 KiB, which no rank should
// pay in a 65536-rank world that never asks for randomness. Like all Proc
// methods it must be called from the owning goroutine.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(int64(p.rank)*1_000_003 + 17))
	}
	return p.rng
}

// Compute advances the virtual clock by d, modelling computation.
func (p *Proc) Compute(d time.Duration) {
	if d < 0 {
		panic("mpi: negative compute time")
	}
	p.clock += int64(d)
}

// ComputeFlops advances the clock by the machine's time for the given
// number of floating-point operations.
func (p *Proc) ComputeFlops(flops float64) {
	p.Compute(p.world.mach.FlopTime(flops))
}

// Sleep is an alias of Compute for code that reads better that way (the
// paper's Fig. 2 workload sleeps between sends).
func (p *Proc) Sleep(d time.Duration) { p.Compute(d) }

// enterMPI starts accounting a top-level MPI call; leaveMPI(enterMPI())
// brackets every public communication method.
func (p *Proc) enterMPI() int64 {
	if p.internal == 0 {
		return p.clock
	}
	return -1
}

func (p *Proc) leaveMPI(t0 int64) {
	if t0 >= 0 {
		p.mpiTime += p.clock - t0
	}
}

// beginInternal marks the start of a library-internal region (collective
// decomposition): messages sent inside are monitored with class Coll.
func (p *Proc) beginInternal() { p.internal++ }

func (p *Proc) endInternal() {
	p.internal--
	if p.internal < 0 {
		panic("mpi: unbalanced internal region")
	}
}

// class returns the monitoring class of a message sent right now.
func (p *Proc) class() pml.Class {
	if p.internal > 0 {
		return pml.Coll
	}
	return pml.P2P
}
