// Package pml is the low-level message monitoring component of the runtime,
// mirroring the pml_monitoring component that prior work (Bosilca et al.,
// Euro-Par 2017) added to Open MPI's point-to-point management layer. It
// hangs below the MPI API, at the point where every message — including the
// point-to-point messages a collective decomposes into — is handed to the
// transport, and counts messages and bytes per destination rank and per
// communication class.
//
// The introspection library (package monitoring) never reads these counters
// directly; it goes through the MPI_T emulation in package mpit, preserving
// the paper's layering.
package pml

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Class tells which kind of MPI operation produced a message. Collective
// operations are observed after decomposition: a broadcast of one MB to
// eight ranks shows up here as the individual tree messages of class Coll,
// not as one API-level event — the central feature of the paper.
type Class int

const (
	// P2P is a user-issued point-to-point message.
	P2P Class = iota
	// Coll is a point-to-point message issued internally by a collective
	// operation's decomposition.
	Coll
	// Osc is a one-sided (RMA) data transfer.
	Osc

	// NumClasses is the number of communication classes.
	NumClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case P2P:
		return "p2p"
	case Coll:
		return "coll"
	case Osc:
		return "osc"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Level is the monitoring activation level, mirroring the
// --mca pml_monitoring_enable values of the paper.
type Level int32

const (
	// Disabled records nothing.
	Disabled Level = 0
	// Aggregate records counts and sizes without distinguishing
	// library-issued (internal) from user-issued (external) messages.
	Aggregate Level = 1
	// Distinct additionally distinguishes message classes, so internal
	// collective traffic can be told apart from user point-to-point.
	Distinct Level = 2
)

// Recorder observes individual monitored messages (communication class,
// destination world rank, payload bytes, virtual timestamp in ns). The
// class is the one the monitor records, i.e. already folded to P2P at
// level Aggregate. Recorders see only what the counters see: nothing at
// level Disabled and nothing while recording is suppressed.
type Recorder func(class Class, dst, bytes int, when int64)

// Monitor holds the per-process counters. One Monitor belongs to one MPI
// process; counters are written on the sender side only, at the moment the
// message is buffered for transmission. All methods are safe for concurrent
// use.
//
// There is one storage representation at every world size: per class, the
// peers with recorded traffic as {dst, count, bytes} entries in first-touch
// order, plus an open-addressed index from dst to entry. A class holds
// nothing until its first Record; after that a touched peer costs 32 B when
// the table is full (a 24 B entry and two 4 B index slots) and at most
// twice that right after a doubling, so monitor memory follows the peers a
// process talks to, not the world size. One mutex guards all classes: the
// owning rank is the only writer, readers are gather-time operations, and
// holding the lock is what makes every read exact.
//
// Any number of recorders can observe the monitor simultaneously (the
// hardware-counter collector and the telemetry metrics both hang off the
// same run); the hot path reads an immutable snapshot of the recorder list,
// so fan-out costs one pointer load when no recorder is installed.
type Monitor struct {
	n        int
	level    atomic.Int32
	suppress atomic.Int32

	recMu     sync.Mutex
	recorders atomic.Pointer[[]Recorder]

	mu  sync.Mutex
	tab [NumClasses]table
}

// entry holds the two counters of one (class, destination) pair.
type entry struct {
	dst      int32
	cnt, byt uint64
}

// table is one class's counters. ents is in first-touch order. idx is a
// linear-probed hash index over it: a slot holds an entry's position plus
// one, zero is empty, and len(idx) == 2*cap(ents) is a power of two, so
// the index is never more than half full. shift is 32 - log2(len(idx)).
type table struct {
	ents  []entry
	idx   []int32
	shift uint
}

// slot returns the index slot that holds dst, or the empty slot where dst
// belongs. The multiplicative hash spreads the strided neighbourhoods of
// stencil codes (r±1, r±gx), which share low bits.
func (t *table) slot(dst int32) uint32 {
	mask := uint32(len(t.idx) - 1)
	for i := uint32(dst) * 2654435769 >> t.shift; ; i = (i + 1) & mask {
		if k := t.idx[i]; k == 0 || t.ents[k-1].dst == dst {
			return i
		}
	}
}

// get returns dst's entry, or nil when dst has no recorded traffic.
func (t *table) get(dst int32) *entry {
	if len(t.ents) == 0 {
		return nil
	}
	if k := t.idx[t.slot(dst)]; k != 0 {
		return &t.ents[k-1]
	}
	return nil
}

// add appends a zero entry for dst, which must not have one yet.
func (t *table) add(dst int32) *entry {
	if len(t.ents) == cap(t.ents) {
		t.grow()
	}
	t.ents = append(t.ents, entry{dst: dst})
	t.idx[t.slot(dst)] = int32(len(t.ents))
	return &t.ents[len(t.ents)-1]
}

// grow doubles the table's capacity (from nothing to four peers) and
// rebuilds the index at the new size.
func (t *table) grow() {
	c := 2 * cap(t.ents)
	if c == 0 {
		c = 4
	}
	ents := make([]entry, len(t.ents), c)
	copy(ents, t.ents)
	t.ents = ents
	t.idx = make([]int32, 2*c)
	t.shift = uint(32 - bits.TrailingZeros(uint(2*c)))
	for k := range ents {
		t.idx[t.slot(ents[k].dst)] = int32(k + 1)
	}
}

// load returns one of the entry's two counters.
func (e *entry) load(wantBytes bool) uint64 {
	if wantBytes {
		return e.byt
	}
	return e.cnt
}

// NewMonitor builds a monitor for a world of n ranks at the given level.
func NewMonitor(n int, level Level) *Monitor {
	m := &Monitor{n: n}
	m.level.Store(int32(level))
	return m
}

// checkPeer panics unless dst is a rank of the monitor's world.
func (m *Monitor) checkPeer(dst int) {
	if dst < 0 || dst >= m.n {
		panic(fmt.Sprintf("pml: peer %d outside world of %d", dst, m.n))
	}
}

// Size returns the number of destination ranks tracked.
func (m *Monitor) Size() int { return m.n }

// Level returns the current activation level.
func (m *Monitor) Level() Level { return Level(m.level.Load()) }

// SetLevel changes the activation level at run time.
func (m *Monitor) SetLevel(l Level) { m.level.Store(int32(l)) }

// Suppress temporarily pauses recording while the introspection library
// performs its own collective operations (gathering monitored data must not
// pollute the data, cf. the paper's Sec. 4.1). Calls nest.
func (m *Monitor) Suppress() { m.suppress.Add(1) }

// Unsuppress reverses one Suppress call.
func (m *Monitor) Unsuppress() {
	if m.suppress.Add(-1) < 0 {
		panic("pml: Unsuppress without matching Suppress")
	}
}

// AddRecorder registers a per-message observer for the monitor's lifetime.
// Recorders are invoked in registration order on the sender's goroutine.
func (m *Monitor) AddRecorder(r Recorder) {
	if r == nil {
		panic("pml: AddRecorder(nil)")
	}
	m.recMu.Lock()
	defer m.recMu.Unlock()
	var rs []Recorder
	if old := m.recorders.Load(); old != nil {
		rs = append(rs, *old...)
	}
	rs = append(rs, r)
	m.recorders.Store(&rs)
}

// Record counts one outgoing message of the given class to the destination
// world rank, which must lie inside the monitor's world. when is the
// sender's virtual clock (ns) at buffering time. At level Aggregate the
// class distinction is dropped (everything counts as P2P), mirroring
// pml_monitoring_enable=1's "no distinction between user issued and
// library issued messages".
func (m *Monitor) Record(class Class, dst int, size int, when int64) {
	m.checkPeer(dst)
	switch Level(m.level.Load()) {
	case Disabled:
		return
	case Aggregate:
		class = P2P
	}
	if m.suppress.Load() > 0 {
		return
	}
	m.mu.Lock()
	t := &m.tab[class]
	e := t.get(int32(dst))
	if e == nil {
		e = t.add(int32(dst))
	}
	e.cnt++
	e.byt += uint64(size)
	m.mu.Unlock()
	if rs := m.recorders.Load(); rs != nil {
		for _, r := range *rs {
			r(class, dst, size, when)
		}
	}
}

// Counts copies the per-destination message counts of one class into out,
// which must have length Size().
func (m *Monitor) Counts(class Class, out []uint64) {
	m.copyRow(class, out, false)
}

// Bytes copies the per-destination byte counts of one class into out.
func (m *Monitor) Bytes(class Class, out []uint64) {
	m.copyRow(class, out, true)
}

func (m *Monitor) copyRow(class Class, out []uint64, wantBytes bool) {
	if len(out) != m.n {
		panic(fmt.Sprintf("pml: output slice has length %d, want %d", len(out), m.n))
	}
	clear(out)
	m.mu.Lock()
	defer m.mu.Unlock()
	ents := m.tab[class].ents
	for k := range ents {
		out[ents[k].dst] = ents[k].load(wantBytes)
	}
}

// Touched returns the destination ranks with any traffic recorded for the
// class since the monitor was created (or last Reset), in first-touch
// order. The result is a fresh slice; its length is the number of peers
// touched, so callers iterating it pay O(touched), not O(world).
func (m *Monitor) Touched(class Class) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	ents := m.tab[class].ents
	out := make([]int, len(ents))
	for k := range ents {
		out[k] = int(ents[k].dst)
	}
	return out
}

// CountsAt reads the message counters of one class at the given
// destinations into out (parallel to peers).
func (m *Monitor) CountsAt(class Class, peers []int, out []uint64) {
	m.copyAt(class, peers, out, false)
}

// BytesAt reads the byte counters of one class at the given destinations
// into out (parallel to peers).
func (m *Monitor) BytesAt(class Class, peers []int, out []uint64) {
	m.copyAt(class, peers, out, true)
}

func (m *Monitor) copyAt(class Class, peers []int, out []uint64, wantBytes bool) {
	if len(out) != len(peers) {
		panic(fmt.Sprintf("pml: output slice has length %d for %d peers", len(out), len(peers)))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &m.tab[class]
	for i, p := range peers {
		m.checkPeer(p)
		if e := t.get(int32(p)); e != nil {
			out[i] = e.load(wantBytes)
		} else {
			out[i] = 0
		}
	}
}

// TotalBytes returns the total bytes recorded for one class.
func (m *Monitor) TotalBytes(class Class) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s uint64
	ents := m.tab[class].ents
	for k := range ents {
		s += ents[k].byt
	}
	return s
}

// Reset zeroes every counter and forgets the touched peers. The tables
// keep their capacity, so an epoch loop over a fixed neighbourhood
// (Record, read, Reset, repeat) allocates only in its first epoch.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for cl := range m.tab {
		t := &m.tab[cl]
		t.ents = t.ents[:0]
		clear(t.idx)
	}
}
