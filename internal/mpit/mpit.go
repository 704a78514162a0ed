// Package mpit emulates the slice of the MPI Tool Information Interface
// (MPI_T, added in MPI-3) that the paper's introspection library is built
// on: performance variables ("pvars") exposing the pml monitoring counters,
// read through explicit sessions and handles, plus the
// pml_monitoring_enable control variable ("cvar").
//
// The point of keeping this layer, rather than letting the monitoring
// library read pml counters directly, is architectural fidelity: the paper
// stresses that MPI_T is low level and awkward, and that the library's
// value is hiding it. This package is deliberately the awkward part.
package mpit

import (
	"fmt"

	"mpimon/internal/pml"
)

// Pvar names, mirroring the Open MPI monitoring component's variables.
const (
	VarP2PCount  = "pml_monitoring_pml_count"  // user point-to-point messages
	VarP2PBytes  = "pml_monitoring_pml_size"   // user point-to-point bytes
	VarCollCount = "pml_monitoring_coll_count" // collective-internal messages
	VarCollBytes = "pml_monitoring_coll_size"  // collective-internal bytes
	VarOscCount  = "pml_monitoring_osc_count"  // one-sided messages
	VarOscBytes  = "pml_monitoring_osc_size"   // one-sided bytes
)

// CvarEnable is the control variable selecting the monitoring level,
// equivalent to --mca pml_monitoring_enable on the mpirun command line.
const CvarEnable = "pml_monitoring_enable"

// VarInfo describes one performance variable.
type VarInfo struct {
	Name string
	Desc string
	// Count is the number of uint64 elements a Read fills (one per peer).
	Count int
}

// varSpec is one pvar: its name and which pml table it reads.
type varSpec struct {
	name  string
	class pml.Class
	bytes bool
	desc  string
}

// vars is every pvar the monitoring component exposes, count variables
// first, in VarNames order. With six entries a scan is the whole lookup.
var vars = [...]varSpec{
	{VarP2PCount, pml.P2P, false, "number of user point-to-point messages sent per peer"},
	{VarP2PBytes, pml.P2P, true, "bytes of user point-to-point data sent per peer"},
	{VarCollCount, pml.Coll, false, "number of collective-decomposition messages sent per peer"},
	{VarCollBytes, pml.Coll, true, "bytes of collective-decomposition data sent per peer"},
	{VarOscCount, pml.Osc, false, "number of one-sided messages sent per peer"},
	{VarOscBytes, pml.Osc, true, "bytes of one-sided data sent per peer"},
}

func varByName(name string) (*varSpec, error) {
	for i := range vars {
		if vars[i].name == name {
			return &vars[i], nil
		}
	}
	return nil, fmt.Errorf("mpit: unknown performance variable %q", name)
}

// VarNames lists every pvar exposed by the monitoring component, count
// variables first; the order is stable.
func VarNames() []string {
	names := make([]string, len(vars))
	for i, v := range vars {
		names[i] = v.name
	}
	return names
}

// Interface is the per-process MPI_T access point. It wraps the process's
// pml monitor; obtain one with New.
type Interface struct {
	mon *pml.Monitor
}

// New builds the MPI_T interface over a process's monitoring component.
func New(mon *pml.Monitor) *Interface {
	return &Interface{mon: mon}
}

// Lookup returns the description of a pvar, or an error if it is unknown.
func (t *Interface) Lookup(name string) (VarInfo, error) {
	spec, err := varByName(name)
	if err != nil {
		return VarInfo{}, err
	}
	return VarInfo{Name: name, Desc: spec.desc, Count: t.mon.Size()}, nil
}

// SetControl writes a control variable. Only CvarEnable is defined.
func (t *Interface) SetControl(name string, value int) error {
	if name != CvarEnable {
		return fmt.Errorf("mpit: unknown control variable %q", name)
	}
	if value < 0 {
		return fmt.Errorf("mpit: %s must be >= 0", CvarEnable)
	}
	lv := pml.Level(value)
	if lv > pml.Distinct {
		lv = pml.Distinct
	}
	t.mon.SetLevel(lv)
	return nil
}

// Control reads a control variable.
func (t *Interface) Control(name string) (int, error) {
	if name != CvarEnable {
		return 0, fmt.Errorf("mpit: unknown control variable %q", name)
	}
	return int(t.mon.Level()), nil
}

// Session groups pvar handles, mirroring MPI_T_pvar_session. Handles from
// different sessions are independent. A Session is a value, so a tool can
// keep one inside its own state at no extra allocation; handles refer to
// it by address, so it must not be copied once a handle is bound.
type Session struct {
	mon     *pml.Monitor
	stopped bool
}

// SessionCreate opens a pvar session.
func (t *Interface) SessionCreate() Session {
	return Session{mon: t.mon}
}

// Free invalidates the session; reading through it or its handles then
// fails.
func (s *Session) Free() { s.stopped = true }

// AppendSparse reads all six monitoring pvars at once, sparsely: for every
// class it appends the destination ranks with any recorded traffic, in
// first-touch order, with their count and size values, to bufs[class]
// (pml.Monitor.AppendEntries, one pass under the monitor's lock). A peer
// keeps its position in its class across reads, so a tool can hold its
// state by position with no lookup per peer. The read costs O(touched
// peers) and allocates nothing once the caller's buffers have grown.
func (s *Session) AppendSparse(bufs *[pml.NumClasses][]pml.Entry) error {
	if s.stopped {
		return fmt.Errorf("mpit: reading the monitoring pvars through a freed session")
	}
	s.mon.AppendEntries(bufs)
	return nil
}

// Handle is a bound performance variable ready to be read.
type Handle struct {
	s    *Session
	spec *varSpec
}

// AllocHandle binds a pvar within the session.
func (s *Session) AllocHandle(name string) (*Handle, error) {
	if s.stopped {
		return nil, fmt.Errorf("mpit: session already freed")
	}
	spec, err := varByName(name)
	if err != nil {
		return nil, err
	}
	return &Handle{s: s, spec: spec}, nil
}

// Read copies the current value of the variable — one uint64 per peer rank
// — into out, which must have length equal to the world size.
func (h *Handle) Read(out []uint64) error {
	if h.s.stopped {
		return fmt.Errorf("mpit: reading %s through a freed session", h.spec.name)
	}
	mon := h.s.mon
	if len(out) != mon.Size() {
		return fmt.Errorf("mpit: %s needs a buffer of %d elements, got %d", h.spec.name, mon.Size(), len(out))
	}
	if h.spec.bytes {
		mon.Bytes(h.spec.class, out)
	} else {
		mon.Counts(h.spec.class, out)
	}
	return nil
}
