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
	t *mpit.Interface

	// One pvar handle per (class, counts/bytes); reading the monitoring
	// state always goes through the MPI_T layer.
	hCounts [pml.NumClasses]*mpit.Handle
	hBytes  [pml.NumClasses]*mpit.Handle
	tsess   *mpit.Session

	// tr and active are nil unless the world has telemetry: lifecycle
	// events land on the rank's timeline, and the gauge tracks how many
	// sessions are live on this process. wireBytes/wireNNZ count the
	// sparse gather payload (per gather kind) and rootPeak records the
	// largest transient buffer a streamed root gather needed, so the
	// sparse data path's win over dense O(n²) is observable.
	tr        *telemetry.Rank
	active    *telemetry.Gauge
	wireBytes map[string]*telemetry.Counter
	wireNNZ   *telemetry.Counter
	rootPeak  *telemetry.Gauge

	mu        sync.Mutex
	sessions  map[Msid]*Session
	nextMsid  Msid
	finalized bool
}

// Init sets up the monitoring environment of the calling process. As in
// the paper it may be called again after Finalize, but environments must
// not overlap (the C-style API enforces one live environment per process).
func Init(p *mpi.Proc) (*Env, error) {
	t := mpit.New(p.Monitor())
	e := &Env{p: p, t: t, sessions: make(map[Msid]*Session)}
	e.tsess = t.SessionCreate()
	names := [pml.NumClasses][2]string{
		pml.P2P:  {mpit.VarP2PCount, mpit.VarP2PBytes},
		pml.Coll: {mpit.VarCollCount, mpit.VarCollBytes},
		pml.Osc:  {mpit.VarOscCount, mpit.VarOscBytes},
	}
	for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
		hc, err := e.tsess.AllocHandle(names[cl][0])
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrMPITFail, err)
		}
		hb, err := e.tsess.AllocHandle(names[cl][1])
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrMPITFail, err)
		}
		e.hCounts[cl], e.hBytes[cl] = hc, hb
	}
	if tel := p.World().Telemetry(); tel != nil {
		e.tr = p.Telemetry()
		e.active = tel.Registry().Gauge("mpimon_active_sessions",
			telemetry.L("rank", strconv.Itoa(p.Rank())))
		e.wireBytes = map[string]*telemetry.Counter{
			"allgather":  tel.Registry().Counter("mpimon_gather_wire_bytes_total", telemetry.L("op", "allgather")),
			"rootgather": tel.Registry().Counter("mpimon_gather_wire_bytes_total", telemetry.L("op", "rootgather")),
		}
		e.wireNNZ = tel.Registry().Counter("mpimon_gather_nnz_total")
		e.rootPeak = tel.Registry().Gauge("mpimon_rootgather_peak_buffer_bytes")
		e.tr.Event("monitoring.init", int64(p.Clock()))
	}
	return e, nil
}

// observeGather records the assembled wire footprint of one gather on the
// telemetry registry (no-op without telemetry): op is "allgather" or
// "rootgather", wire the encoded payload bytes and nnz the nonzero entries.
func (e *Env) observeGather(op string, wire, nnz int) {
	if e.wireBytes == nil {
		return
	}
	if ctr, ok := e.wireBytes[op]; ok {
		ctr.Add(uint64(wire))
	}
	e.wireNNZ.Add(uint64(nnz))
}

// observeRootPeak raises the root-gather peak-buffer gauge (root calls it;
// the gauge is a high-water mark across the run's gathers).
func (e *Env) observeRootPeak(bytes int) {
	if e.rootPeak == nil {
		return
	}
	if e.rootPeak.Value() < int64(bytes) {
		e.rootPeak.Set(int64(bytes))
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
		if s.stateLocked() == Active {
			return ErrSessionStillActive
		}
	}
	for id, s := range e.sessions {
		s.mu.Lock()
		s.state = Freed
		s.mu.Unlock()
		delete(e.sessions, id)
		if e.active != nil {
			e.active.Dec()
		}
	}
	e.tsess.Free()
	e.finalized = true
	if e.tr != nil {
		e.tr.Event("monitoring.finalize", int64(e.p.Clock()))
	}
	return nil
}

func (e *Env) checkLive() error {
	if e.finalized {
		return ErrMissingInit
	}
	return nil
}

// pvarSample is one sparse snapshot of the six monitoring pvars: for each
// class, the world ranks with any recorded traffic and their count/byte
// values. Reading one costs O(peers touched), not O(world size).
type pvarSample struct {
	peers  [pml.NumClasses][]int
	counts [pml.NumClasses][]uint64
	bytes  [pml.NumClasses][]uint64
}

// readPvarsSparse samples the monitoring pvars through the MPI_T delta
// read path (Handle.Touched + Handle.ReadAt) into s, reusing its count and
// byte buffers: the peer lists Touched returns are the only allocations.
func (e *Env) readPvarsSparse(s *pvarSample) error {
	for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
		peers, err := e.hCounts[cl].Touched()
		if err != nil {
			return fmt.Errorf("%w: %w", ErrMPITFail, err)
		}
		s.peers[cl] = peers
		s.counts[cl] = slices.Grow(s.counts[cl][:0], len(peers))[:len(peers)]
		s.bytes[cl] = slices.Grow(s.bytes[cl][:0], len(peers))[:len(peers)]
		if err := e.hCounts[cl].ReadAt(peers, s.counts[cl]); err != nil {
			return fmt.Errorf("%w: %w", ErrMPITFail, err)
		}
		if err := e.hBytes[cl].ReadAt(peers, s.bytes[cl]); err != nil {
			return fmt.Errorf("%w: %w", ErrMPITFail, err)
		}
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
	s := &Session{
		env:   e,
		id:    e.nextMsid,
		comm:  comm,
		n:     comm.Size(),
		state: Active,
	}
	if err := e.readPvarsSparse(&s.sample); err != nil {
		return nil, err
	}
	e.nextMsid++
	// COMM_WORLD (context 0) maps world rank to comm rank identically, so
	// the membership map would be an O(np) identity table per rank — a
	// 65536-rank world cannot afford one. Sessions on derived communicators
	// still build the real map.
	if comm.Context() != 0 {
		group := comm.Group()
		s.w2c = make(map[int32]int32, len(group))
		for ci, wr := range group {
			s.w2c[int32(wr)] = int32(ci)
		}
	}
	s.takeSnapshot()
	for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
		s.acc[cl] = make(map[int32]cbPair)
	}
	e.sessions[s.id] = s
	if e.tr != nil {
		e.active.Inc()
		e.tr.Event("session.start", int64(e.p.Clock()))
	}
	return s, nil
}

// Get returns the live session with the given identifier.
func (e *Env) Get(id Msid) (*Session, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.checkLive(); err != nil {
		return nil, err
	}
	s, ok := e.sessions[id]
	if !ok {
		return nil, ErrInvalidMsid
	}
	return s, nil
}

// Sessions returns the live sessions, for AllMsid-style iteration; the
// order follows ascending identifiers. The cost is O(live sessions), not
// O(identifiers ever issued): a long-running process that has churned
// through thousands of sessions pays only for the ones still alive.
func (e *Env) Sessions() []*Session {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (e *Env) drop(id Msid) {
	e.mu.Lock()
	delete(e.sessions, id)
	e.mu.Unlock()
}

// cbPair is one (message count, byte count) cell of the sparse session
// state.
type cbPair struct {
	cnt uint64
	byt uint64
}

// Session is one monitoring session: the per-destination message and byte
// counts accumulated while the session is Active, over the members of its
// communicator. Data is indexed by communicator rank.
//
// Storage is sparse: instead of six world-sized slices per session, the
// session keeps one map entry per peer actually touched — snapshots of
// the pvars at the last Start/Continue and accumulated deltas of the
// completed active spans. A 2D-stencil session on a 4096-rank world holds
// a handful of entries, not 6×4096 words.
type Session struct {
	env  *Env
	id   Msid
	comm *mpi.Comm
	n    int // communicator size
	// w2c maps world rank -> comm rank (the membership filter); nil for a
	// COMM_WORLD session, where the mapping is the identity on [0, n).
	w2c map[int32]int32

	mu    sync.Mutex
	state State
	// Pvar snapshot (keyed by world rank, comm members only) taken at the
	// last Start/Continue; peers absent from the map had no traffic yet.
	snap [pml.NumClasses]map[int32]cbPair
	// Accumulated deltas (keyed by comm rank) of completed active spans.
	acc [pml.NumClasses]map[int32]cbPair
	// sample is the last pvar read; the next one reuses its buffers.
	sample pvarSample
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

// takeSnapshot replaces the session's pvar snapshot with the last sample,
// keeping only peers that are members of the session's communicator; the
// snapshot maps are cleared and refilled, not reallocated. Callers hold
// s.mu (or the session is not yet published).
func (s *Session) takeSnapshot() {
	sample := &s.sample
	for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
		m := s.snap[cl]
		if m == nil {
			m = make(map[int32]cbPair, len(sample.peers[cl]))
			s.snap[cl] = m
		} else {
			clear(m)
		}
		for i, wr := range sample.peers[cl] {
			if _, member := s.commRank(int32(wr)); !member {
				continue
			}
			m[int32(wr)] = cbPair{cnt: sample.counts[cl][i], byt: sample.bytes[cl][i]}
		}
	}
}

// commRank translates a world rank to the session communicator's rank,
// reporting membership. A nil w2c means a COMM_WORLD session: identity on
// [0, n).
func (s *Session) commRank(wr int32) (int32, bool) {
	if s.w2c == nil {
		return wr, wr >= 0 && int(wr) < s.n
	}
	ci, member := s.w2c[wr]
	return ci, member
}

// accumulate folds the delta between the last sample and the snapshot into
// the accumulated per-peer state. Callers hold s.mu.
func (s *Session) accumulate() {
	sample := &s.sample
	for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
		for i, wr := range sample.peers[cl] {
			ci, member := s.commRank(int32(wr))
			if !member {
				continue
			}
			base := s.snap[cl][int32(wr)] // zero value when untouched at snapshot time
			dc := sample.counts[cl][i] - base.cnt
			db := sample.bytes[cl][i] - base.byt
			if dc == 0 && db == 0 {
				continue
			}
			p := s.acc[cl][ci]
			p.cnt += dc
			p.byt += db
			s.acc[cl][ci] = p
		}
	}
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

func (s *Session) stateLocked() State {
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
	if err := s.env.readPvarsSparse(&s.sample); err != nil {
		s.mu.Unlock()
		return err
	}
	s.accumulate()
	s.state = Suspended
	epoch := s.suspends
	s.suspends++
	exporter := s.exporter
	var row sparsemat.Row
	if exporter != nil {
		row = s.sparseRowLocked(AllComm.classes())
	}
	rank, n := s.comm.Rank(), s.n
	s.mu.Unlock()
	if s.env.tr != nil {
		s.env.tr.Event("session.suspend", int64(s.env.p.Clock()))
	}
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
	if err := s.env.readPvarsSparse(&s.sample); err != nil {
		return err
	}
	s.takeSnapshot()
	s.state = Active
	if s.env.tr != nil {
		s.env.tr.Event("session.continue", int64(s.env.p.Clock()))
	}
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
	for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
		clear(s.acc[cl])
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
	s.state = Freed
	s.mu.Unlock()
	s.env.drop(s.id)
	if s.env.tr != nil {
		s.env.active.Dec()
		s.env.tr.Event("session.free", int64(s.env.p.Clock()))
	}
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
	return Info{Provided: ThreadMultiple, ArraySize: s.n}, nil
}
