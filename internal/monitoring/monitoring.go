// Package monitoring is the paper's contribution: a high-level
// introspection monitoring library for MPI applications. It wraps the
// low-level MPI_T performance variables of the pml monitoring component in
// the notion of a monitoring *session* — an object attached to a
// communicator that can be started, suspended, continued, reset and freed,
// so that only chosen portions of the code are watched. Sessions are
// independent: they may overlap or nest, and each can filter by
// communication class (point-to-point, collective-internal, one-sided).
//
// Two API surfaces are provided: the idiomatic one in this package
// (Env/Session methods) and a faithful C-style flat-function surface
// (MPI_M_* names, integer error codes) in the root mpimon package.
//
// A session records every message whose sender and receiver both belong to
// the session's communicator, even when the message travels on a different
// communicator — e.g. a session on an odd/even split still sees exchanges
// between ranks 0 and 2 made through COMM_WORLD.
package monitoring

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"mpimon/internal/mpi"
	"mpimon/internal/mpit"
	"mpimon/internal/pml"
	"mpimon/internal/sparsemat"
	"mpimon/internal/telemetry"
)

// Flags selects which communication classes a data access returns.
type Flags int

// Class-selection flags; combine with bitwise or. They mirror
// MPI_M_P2P_ONLY, MPI_M_COLL_ONLY, MPI_M_OSC_ONLY and MPI_M_ALL_COMM.
const (
	P2POnly Flags = 1 << iota
	CollOnly
	OscOnly
	AllComm = P2POnly | CollOnly | OscOnly
)

// classesOf lists, for every combination of class flags, the classes it
// selects, so that classes allocates nothing.
var classesOf = func() (t [AllComm + 1][]pml.Class) {
	for f := range t {
		for _, fc := range []struct {
			flag  Flags
			class pml.Class
		}{{P2POnly, pml.P2P}, {CollOnly, pml.Coll}, {OscOnly, pml.Osc}} {
			if Flags(f)&fc.flag != 0 {
				t[f] = append(t[f], fc.class)
			}
		}
	}
	return t
}()

// classes returns the classes f selects; the caller must not modify them.
func (f Flags) classes() []pml.Class { return classesOf[f&AllComm] }

// Msid identifies a session in the C-style API; AllMsid addresses every
// live session at once where permitted.
type Msid int

// AllMsid is the MPI_M_ALL_MSID constant.
const AllMsid Msid = -1

// MaxSessions bounds the number of simultaneously live sessions per
// process; exceeding it yields ErrSessionOverflow.
const MaxSessions = 256

// ThreadMultiple is the thread-support level GetInfo reports (the runtime's
// session operations are thread-safe, the MPI_THREAD_MULTIPLE contract).
const ThreadMultiple = 3

// State is a session's lifecycle state.
type State int

// Session states. A session is born Active, alternates with Suspended, and
// ends Freed. Monitored data is readable only while Suspended.
const (
	Active State = iota
	Suspended
	Freed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Suspended:
		return "suspended"
	case Freed:
		return "freed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Env is one process's monitoring environment, created by Init and
// destroyed by Finalize (the paper's MPI_M_init / MPI_M_finalize, to be
// called inside the MPI_Init/MPI_Finalize pair). All methods are safe for
// concurrent use.
type Env struct {
	p *mpi.Proc
	// pvars is the MPI_T session every read of the monitoring state goes
	// through.
	pvars mpit.Session
	tel   *envTelemetry // nil unless the world has telemetry

	mu        sync.Mutex
	sessions  []*Session // the live sessions, ascending identifiers
	nextMsid  Msid
	finalized bool
}

// envTelemetry is what an environment reports when its world has
// telemetry: lifecycle events land on the rank's timeline, and the gauge
// tracks how many sessions are live on this process. The wire counters
// count the sparse gather payload (per gather kind) and rootPeak records
// the largest transient buffer a streamed root gather needed, so the
// sparse data path's win over dense O(n²) is observable.
type envTelemetry struct {
	tr             *telemetry.Rank
	active         *telemetry.Gauge
	allgatherWire  *telemetry.Counter
	rootgatherWire *telemetry.Counter
	wireNNZ        *telemetry.Counter
	rootPeak       *telemetry.Gauge
}

// Init sets up the monitoring environment of the calling process. As in
// the paper it may be called again after Finalize, but environments must
// not overlap (the C-style API enforces one live environment per process).
func Init(p *mpi.Proc) (*Env, error) {
	e := &Env{p: p, pvars: mpit.New(p.Monitor()).SessionCreate()}
	if tel := p.World().Telemetry(); tel != nil {
		reg := tel.Registry()
		e.tel = &envTelemetry{
			tr:             p.Telemetry(),
			active:         reg.Gauge("mpimon_active_sessions", telemetry.L("rank", strconv.Itoa(p.Rank()))),
			allgatherWire:  reg.Counter("mpimon_gather_wire_bytes_total", telemetry.L("op", "allgather")),
			rootgatherWire: reg.Counter("mpimon_gather_wire_bytes_total", telemetry.L("op", "rootgather")),
			wireNNZ:        reg.Counter("mpimon_gather_nnz_total"),
			rootPeak:       reg.Gauge("mpimon_rootgather_peak_buffer_bytes"),
		}
		e.event("monitoring.init")
	}
	return e, nil
}

// event puts a lifecycle event on the rank's timeline (no-op without
// telemetry).
func (e *Env) event(name string) {
	if e.tel != nil {
		e.tel.tr.Event(name, int64(e.p.Clock()))
	}
}

// observeGather records the assembled wire footprint of one gather on the
// telemetry registry (no-op without telemetry): root tells a root gather
// from an allgather, wire is the encoded payload bytes and nnz the nonzero
// entries.
func (e *Env) observeGather(root bool, wire, nnz int) {
	if e.tel == nil {
		return
	}
	ctr := e.tel.allgatherWire
	if root {
		ctr = e.tel.rootgatherWire
	}
	ctr.Add(uint64(wire))
	e.tel.wireNNZ.Add(uint64(nnz))
}

// observeRootPeak raises the root-gather peak-buffer gauge (root calls it;
// the gauge is a high-water mark across the run's gathers).
func (e *Env) observeRootPeak(bytes int) {
	if e.tel == nil {
		return
	}
	if e.tel.rootPeak.Value() < int64(bytes) {
		e.tel.rootPeak.Set(int64(bytes))
	}
}

// Proc returns the process this environment monitors.
func (e *Env) Proc() *mpi.Proc { return e.p }

// Finalize tears the environment down. Every session must have been
// suspended first (ErrSessionStillActive otherwise); suspended sessions are
// freed.
func (e *Env) Finalize() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finalized {
		return ErrMissingInit
	}
	for _, s := range e.sessions {
		if s.State() == Active {
			return ErrSessionStillActive
		}
	}
	for _, s := range e.sessions {
		s.mu.Lock()
		s.release()
		s.mu.Unlock()
		if e.tel != nil {
			e.tel.active.Dec()
		}
	}
	e.sessions = nil
	e.pvars.Free()
	e.finalized = true
	e.event("monitoring.finalize")
	return nil
}

func (e *Env) checkLive() error {
	if e.finalized {
		return ErrMissingInit
	}
	return nil
}

// Start creates a monitoring session attached to comm and puts it in the
// Active state. Like every session function except GetInfo it must be
// called by all processes of comm. The unique initial Start must be matched
// by a final Suspend before the data can be read or the session freed.
func (e *Env) Start(comm *mpi.Comm) (*Session, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.checkLive(); err != nil {
		return nil, err
	}
	if len(e.sessions) >= MaxSessions {
		return nil, ErrSessionOverflow
	}
	s := &Session{env: e, id: e.nextMsid, comm: comm, state: Active}
	s.indexMembers()
	if err := s.fold(false); err != nil {
		return nil, err
	}
	e.nextMsid++
	e.sessions = append(e.sessions, s)
	if e.tel != nil {
		e.tel.active.Inc()
	}
	e.event("session.start")
	return s, nil
}

// Get returns the live session with the given identifier.
func (e *Env) Get(id Msid) (*Session, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.checkLive(); err != nil {
		return nil, err
	}
	i, ok := e.find(id)
	if !ok {
		return nil, ErrInvalidMsid
	}
	return e.sessions[i], nil
}

// find returns the position of the live session id in e.sessions, and
// whether it is there. Callers hold e.mu.
func (e *Env) find(id Msid) (int, bool) {
	return slices.BinarySearchFunc(e.sessions, id, func(s *Session, id Msid) int { return cmp.Compare(s.id, id) })
}

// Sessions returns the live sessions, for AllMsid-style iteration; the
// order follows ascending identifiers. The cost is O(live sessions), not
// O(identifiers ever issued): a long-running process that has churned
// through thousands of sessions pays only for the ones still alive.
func (e *Env) Sessions() []*Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.sessions)
}

func (e *Env) drop(id Msid) {
	e.mu.Lock()
	if i, ok := e.find(id); ok {
		e.sessions = slices.Delete(e.sessions, i, i+1)
	}
	e.mu.Unlock()
}

// Session is one monitoring session: the per-destination message and byte
// counts accumulated while the session is Active, over the members of its
// communicator. Data is indexed by communicator rank.
//
// Storage is one flat slice per class, laid over the pml monitor's entries
// for that class: cells[cl][k] belongs to the peer at position k of the
// class's first-touch order, which never changes (pml.Monitor.AppendEntries).
// Its Dst is the peer's communicator rank, or -1 when the peer is not a
// member. Its counters are the session's accumulated data while the
// session is Suspended, and that data minus the pvar values at the last
// Start or Continue while it is Active (unsigned wrap-around, exact), so
// that Suspend adds the current values and Continue subtracts them. Every
// pvar read appends the current entries after the cells and folds them in
// place, in one pass with no lookup per peer, so Start, Suspend, Continue
// and Reset each cost O(touched peers) and allocate nothing once the
// slices have grown. A 2D-stencil session on a 16 384-rank world holds
// four cells, not 6×16 384 words.
type Session struct {
	env  *Env
	id   Msid
	comm *mpi.Comm
	// order lists the communicator's ranks by ascending world rank, for
	// the binary search that finds a new peer's communicator rank. It is
	// nil when the ranks already ascend by world rank (COMM_WORLD and
	// most splits), where the search runs over the communicator itself.
	order []int32

	mu    sync.Mutex
	state State
	cells [pml.NumClasses][]pml.Entry
	// suspends counts completed Suspends; it is the epoch tag of the
	// exporter stream (Suspend k exports epoch k-1).
	suspends uint64
	exporter RowExporter
}

// RowExporter streams one rank's monitoring data to an external sink —
// the live monitoring service of internal/monsvc, a file, a test
// recorder. The session calls it at the end of each successful Suspend
// with the epoch (0-based count of Suspends), the caller's rank and the
// size of the session's communicator, and the session's current AllComm
// sparse row. With per-epoch deltas wanted, pair each Suspend with
// Reset before the next Continue; without Reset the exported rows are
// cumulative since the session started.
type RowExporter func(epoch uint64, rank, n int, row sparsemat.Row) error

// SetRowExporter installs (or, with nil, removes) the session's row
// exporter. Safe to call at any point in the lifecycle; it applies to
// Suspends that happen after the call.
func (s *Session) SetRowExporter(f RowExporter) {
	s.mu.Lock()
	s.exporter = f
	s.mu.Unlock()
}

// indexMembers prepares the world-to-communicator rank translation: it
// keeps an order only when the communicator's ranks do not ascend by world
// rank. Callers hold s.mu (or the session is not yet published).
func (s *Session) indexMembers() {
	c := s.comm
	if c.Context() == 0 {
		return // COMM_WORLD: the identity, checked in O(1) rather than O(np)
	}
	n := c.Size()
	for r := 1; r < n; r++ {
		if c.WorldRank(r-1) > c.WorldRank(r) {
			s.order = make([]int32, n)
			for i := range s.order {
				s.order[i] = int32(i)
			}
			slices.SortFunc(s.order, func(a, b int32) int { return cmp.Compare(c.WorldRank(int(a)), c.WorldRank(int(b))) })
			return
		}
	}
}

// commRank translates a world rank to the session communicator's rank, or
// -1 when it is not a member.
func (s *Session) commRank(wr int32) int32 {
	c := s.comm
	if c.Context() == 0 {
		return wr
	}
	at := func(i int) int {
		if s.order != nil {
			return int(s.order[i])
		}
		return i
	}
	i := sort.Search(c.Size(), func(i int) bool { return c.WorldRank(at(i)) >= int(wr) })
	if i == c.Size() || c.WorldRank(at(i)) != int(wr) {
		return -1
	}
	return int32(at(i))
}

// fold reads the pvars into the tails of the cells and folds the current
// values in: added at a Suspend, subtracted at a Start or Continue. A peer
// first seen in this read gets its cell, with its communicator rank. The
// cells then have one entry per touched peer again. Callers hold s.mu (or
// the session is not yet published).
func (s *Session) fold(suspend bool) error {
	var held [pml.NumClasses]int
	for cl := range s.cells {
		held[cl] = len(s.cells[cl])
	}
	if err := s.env.pvars.AppendSparse(&s.cells); err != nil {
		return fmt.Errorf("%w: %w", ErrMPITFail, err)
	}
	for cl, cells := range s.cells {
		n0 := held[cl]
		cur := cells[n0:]
		if len(cur) < n0 {
			return fmt.Errorf("%w: the pml monitor lists %d peers of %v, fewer than the %d it listed before", ErrInternalFail, len(cur), pml.Class(cl), n0)
		}
		for k := range cur {
			c, e := cur[k], &cells[k] // e is c itself for a new peer when n0 == 0
			if k >= n0 {
				*e = pml.Entry{Dst: s.commRank(c.Dst)}
			}
			if e.Dst < 0 {
				continue
			}
			if suspend {
				e.Cnt += c.Cnt
				e.Byt += c.Byt
			} else {
				e.Cnt -= c.Cnt
				e.Byt -= c.Byt
			}
		}
		s.cells[cl] = cells[:len(cur)]
	}
	return nil
}

// release drops a freed session's cells. Callers hold s.mu.
func (s *Session) release() {
	s.state = Freed
	s.cells = [pml.NumClasses][]pml.Entry{}
}

// ID returns the session identifier (msid).
func (s *Session) ID() Msid { return s.id }

// Comm returns the communicator the session is attached to.
func (s *Session) Comm() *mpi.Comm { return s.comm }

// State returns the lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Suspend stops recording and makes the data available. Suspending a
// session that is not Active yields ErrMultipleCall (or ErrInvalidMsid if
// freed). With a row exporter installed, the session's AllComm sparse row
// is streamed out before Suspend returns; an exporter failure leaves the
// session Suspended (the data is intact and readable) and is reported
// wrapped under ErrInternalFail.
func (s *Session) Suspend() error {
	s.mu.Lock()
	switch s.state {
	case Freed:
		s.mu.Unlock()
		return ErrInvalidMsid
	case Suspended:
		s.mu.Unlock()
		return ErrMultipleCall
	}
	if err := s.fold(true); err != nil {
		s.mu.Unlock()
		return err
	}
	s.state = Suspended
	epoch := s.suspends
	s.suspends++
	exporter := s.exporter
	var row sparsemat.Row
	if exporter != nil {
		row = s.sparseRowLocked(AllComm.classes())
	}
	rank, n := s.comm.Rank(), s.comm.Size()
	s.mu.Unlock()
	s.env.event("session.suspend")
	// The exporter runs outside s.mu so it may call back into the
	// session (Data, SparseData) or block on I/O without deadlocking.
	if exporter != nil {
		if err := exporter(epoch, rank, n, row); err != nil {
			return fmt.Errorf("%w: row export of epoch %d: %w", ErrInternalFail, epoch, err)
		}
	}
	return nil
}

// Continue puts a suspended session back in the Active state.
func (s *Session) Continue() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case Freed:
		return ErrInvalidMsid
	case Active:
		return ErrMultipleCall
	}
	if err := s.fold(false); err != nil {
		return err
	}
	s.state = Active
	s.env.event("session.continue")
	return nil
}

// Reset zeroes the data of a suspended session.
func (s *Session) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case Freed:
		return ErrInvalidMsid
	case Active:
		return ErrSessionNotSuspended
	}
	for _, cells := range s.cells {
		for k := range cells {
			cells[k].Cnt, cells[k].Byt = 0, 0
		}
	}
	return nil
}

// Free releases a suspended session; its data is no longer available.
func (s *Session) Free() error {
	s.mu.Lock()
	switch s.state {
	case Freed:
		s.mu.Unlock()
		return ErrInvalidMsid
	case Active:
		s.mu.Unlock()
		return ErrSessionNotSuspended
	}
	s.release()
	s.mu.Unlock()
	s.env.drop(s.id)
	if s.env.tel != nil {
		s.env.tel.active.Dec()
	}
	s.env.event("session.free")
	return nil
}

// Info mirrors MPI_M_get_info: the provided thread-support level and the
// size of the per-process data arrays (equal to the communicator size, and
// to one dimension of the gathered square matrices).
type Info struct {
	Provided  int
	ArraySize int
}

// GetInfo returns session metadata; unlike the other functions it may be
// called by any subset of the communicator. It is valid in any non-freed
// state.
func (s *Session) GetInfo() (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == Freed {
		return Info{}, ErrInvalidMsid
	}
	return Info{Provided: ThreadMultiple, ArraySize: s.comm.Size()}, nil
}
