// Package netsim computes virtual-time communication costs over a hardware
// topology. It is the transport substrate under the MPI runtime: every
// point-to-point message is priced with a LogGP-style model whose latency
// and bandwidth depend on the topology distance between the two cores, and
// inter-node transfers serialize on the sending node's NIC, which models the
// congestion that makes process placement matter.
//
// The package also maintains per-node hardware transmit counters analogous
// to /sys/class/infiniband/<dev>/counters/port_xmit_data, used by the
// hardware-counter-versus-introspection experiment (paper Fig. 2 and 3).
package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpimon/internal/topology"
)

// LinkParams is the latency/bandwidth pair of one level of the machine.
type LinkParams struct {
	// Latency is the one-way message latency.
	Latency time.Duration
	// Bandwidth is in bytes per second.
	Bandwidth float64
}

// Machine describes the performance model of a cluster: its topology plus
// link parameters per shared level. Links[l] applies to a message whose
// endpoints have their deepest common ancestor at depth l; Links[0] is the
// inter-node (through the top switch) link, deeper levels are cheaper
// (same node, same socket). A message to self uses the deepest level.
type Machine struct {
	Topo *topology.Topology
	// Links has Topo.Depth()+1 entries, indexed by shared level 0..Depth().
	Links []LinkParams
	// SendOverhead (o_s) is CPU time charged to the sender per message.
	SendOverhead time.Duration
	// RecvOverhead (o_r) is CPU time charged to the receiver per message.
	RecvOverhead time.Duration
	// EagerLimit is the message size (bytes) up to which the sender does
	// not wait for the transfer to drain (eager protocol). Larger
	// messages hold the sender until injection completes (rendezvous).
	EagerLimit int
	// Contention enables NIC serialization: concurrent inter-node
	// transfers from the same node queue on the node's NIC.
	Contention bool
	// FlopsPerSecond scales Proc.ComputeFlops; zero disables compute
	// modelling (ComputeFlops panics).
	FlopsPerSecond float64
}

// Validate checks internal consistency.
func (m *Machine) Validate() error {
	if m.Topo == nil {
		return fmt.Errorf("netsim: machine has no topology")
	}
	if len(m.Links) != m.Topo.Depth()+1 {
		return fmt.Errorf("netsim: need %d link levels, have %d", m.Topo.Depth()+1, len(m.Links))
	}
	for i, l := range m.Links {
		if l.Bandwidth <= 0 {
			return fmt.Errorf("netsim: level %d bandwidth must be positive", i)
		}
		if l.Latency < 0 {
			return fmt.Errorf("netsim: level %d latency must be non-negative", i)
		}
	}
	return nil
}

// PlaFRIM builds a machine modelled on the paper's experimental testbed: an
// OmniPath 100 Gb/s cluster of dual-socket 12-core Haswell nodes. Latencies
// and bandwidths are representative, not measured; what matters for the
// reproduced results is their ordering across levels.
func PlaFRIM(nodes int) *Machine {
	topo := topology.MustNew(nodes, 2, 12)
	return &Machine{
		Topo: topo,
		Links: []LinkParams{
			{Latency: 1500 * time.Nanosecond, Bandwidth: 12.5e9}, // inter-node, 100 Gb/s
			{Latency: 700 * time.Nanosecond, Bandwidth: 8e9},     // same node, cross socket
			{Latency: 400 * time.Nanosecond, Bandwidth: 10e9},    // same socket
			{Latency: 200 * time.Nanosecond, Bandwidth: 16e9},    // self
		},
		SendOverhead:   250 * time.Nanosecond,
		RecvOverhead:   250 * time.Nanosecond,
		EagerLimit:     64 << 10,
		Contention:     true,
		FlopsPerSecond: 5e9,
	}
}

// MultiSwitch builds a two-tier cluster: switches top-level switches, each
// with nodesPerSwitch dual-socket 12-core nodes. Cross-switch traffic pays
// a higher latency and lower bandwidth than same-switch inter-node traffic
// — the machine shape where TreeMatch's hierarchy awareness matters most.
func MultiSwitch(switches, nodesPerSwitch int) *Machine {
	topo, err := topology.NewWithNodeDepth(2, switches, nodesPerSwitch, 2, 12)
	if err != nil {
		panic(err)
	}
	return &Machine{
		Topo: topo,
		Links: []LinkParams{
			{Latency: 3000 * time.Nanosecond, Bandwidth: 8e9},    // cross switch
			{Latency: 1500 * time.Nanosecond, Bandwidth: 12.5e9}, // same switch, inter node
			{Latency: 700 * time.Nanosecond, Bandwidth: 8e9},     // same node, cross socket
			{Latency: 400 * time.Nanosecond, Bandwidth: 10e9},    // same socket
			{Latency: 200 * time.Nanosecond, Bandwidth: 16e9},    // self
		},
		SendOverhead:   250 * time.Nanosecond,
		RecvOverhead:   250 * time.Nanosecond,
		EagerLimit:     64 << 10,
		Contention:     true,
		FlopsPerSecond: 5e9,
	}
}

// IBPair builds the two-node InfiniBand EDR machine of the paper's Sec. 6.1
// (Xeon 6140, 18 cores per socket).
func IBPair() *Machine {
	topo := topology.MustNew(2, 2, 18)
	return &Machine{
		Topo: topo,
		Links: []LinkParams{
			{Latency: 1200 * time.Nanosecond, Bandwidth: 12.1e9}, // EDR ~100 Gb/s
			{Latency: 700 * time.Nanosecond, Bandwidth: 8e9},
			{Latency: 400 * time.Nanosecond, Bandwidth: 10e9},
			{Latency: 200 * time.Nanosecond, Bandwidth: 16e9},
		},
		SendOverhead:   250 * time.Nanosecond,
		RecvOverhead:   250 * time.Nanosecond,
		EagerLimit:     64 << 10,
		Contention:     true,
		FlopsPerSecond: 5e9,
	}
}

// Fault describes what a fault injector did to one transfer. The zero
// FatNode builds a machine with a fat intra-node fabric: nodes of two
// boards with four devices each, linked inside the node by an
// NVLink/NVSwitch-class interconnect an order of magnitude faster than
// the inter-node network — the shape of the GPU clusters that motivate
// monitoring collective traffic *within* a node ("Monitoring Collective
// Communication Among GPUs"). On this machine the algorithm choice flips
// compared to PlaFRIM: staying on-node is nearly free, so ring-style
// schedules that cross the node boundary once per block beat trees that
// hammer the uplink.
func FatNode(nodes int) *Machine {
	topo, err := topology.NewWithNodeDepth(1, nodes, 2, 4)
	if err != nil {
		panic(err)
	}
	return &Machine{
		Topo: topo,
		Links: []LinkParams{
			{Latency: 1500 * time.Nanosecond, Bandwidth: 25e9}, // inter-node, 200 Gb/s HDR
			{Latency: 300 * time.Nanosecond, Bandwidth: 150e9}, // same node, cross board
			{Latency: 200 * time.Nanosecond, Bandwidth: 250e9}, // same board
			{Latency: 100 * time.Nanosecond, Bandwidth: 300e9}, // self
		},
		SendOverhead:   250 * time.Nanosecond,
		RecvOverhead:   250 * time.Nanosecond,
		EagerLimit:     64 << 10,
		Contention:     true,
		FlopsPerSecond: 5e9,
	}
}

// value means the transfer was untouched.
type Fault struct {
	// Drop discards the message: the sender is charged as usual (the
	// bytes left the card) but the receiver never sees it.
	Drop bool
	// Duplicate delivers the message twice; DupArrival is the arrival
	// time of the spurious copy (filled in by the network).
	Duplicate  bool
	DupArrival int64
	// ExtraLatency is added to the arrival time (a latency spike).
	ExtraLatency time.Duration
	// BandwidthScale multiplies the effective link bandwidth; 0 or 1
	// leaves it unchanged, 0.1 means the link runs at a tenth of its
	// nominal rate (degradation).
	BandwidthScale float64
}

// FaultInjector decides, per transfer, whether and how to perturb it. It
// is consulted from all rank goroutines concurrently and must be safe for
// that; implementations should be deterministic functions of the transfer
// parameters so simulation runs stay reproducible.
type FaultInjector interface {
	// TransferFault returns the fault to apply to a transfer of size
	// bytes from core src to core dst injected at virtual time now; ok
	// is false when the transfer is untouched (the common case, kept
	// cheap).
	TransferFault(src, dst, size int, now int64) (f Fault, ok bool)
}

// SetFaultInjector installs (or removes, with nil) the network's fault
// injector. Must be called before the simulation runs.
func (n *Network) SetFaultInjector(fi FaultInjector) { n.faults = fi }

// XmitEvent is one inter-node transmission seen by a node's NIC, stamped
// with the virtual time at which the last byte left the card.
type XmitEvent struct {
	Node  int
	When  int64 // virtual ns
	Bytes int64
}

// Network holds the mutable transport state of one simulation run: NIC
// queues and hardware counters. A Network may be used concurrently by all
// rank goroutines.
type Network struct {
	mach *Machine
	nics []nicState

	logMu    sync.Mutex
	eventLog []XmitEvent
	logging  atomic.Bool

	// levelTab memoizes Topo.SharedLevel for every core pair; built on
	// first use, nil when the topology is too large (see maxLevelTabLeaves).
	levelOnce sync.Once
	levelTab  []uint8

	// waitObs, when non-nil, observes NIC busy-waits: a transfer that
	// found its node's NIC busy reports how long (virtual ns) it queued.
	// Set it before the simulation starts; it is called concurrently from
	// the rank goroutines and must be safe for that.
	waitObs func(node int, waitNs int64)

	// faults, when non-nil, perturbs transfers (see FaultInjector). The
	// nil check in TransferF is the whole disabled fast path.
	faults FaultInjector
}

// nicShards spreads a node's transmit counters over independent cache
// lines, indexed by sending core: with Contention off, cores of one node
// would otherwise still serialize on the shared counter line even though
// the model says their transfers are independent. Must be a power of two.
const nicShards = 8

// counterShard is one padded slice of a node's transmit counters.
type counterShard struct {
	xmitData atomic.Int64 // bytes that left through the NIC
	xmitPkts atomic.Int64
	_        [6]int64 // one cache line per shard
}

type nicState struct {
	busyUntil atomic.Int64
	_         [7]int64 // keep the contention word off the counter lines
	shards    [nicShards]counterShard
}

// NewNetwork builds the transport state for the machine.
func NewNetwork(m *Machine) (*Network, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Network{mach: m, nics: make([]nicState, m.Topo.NumNodes())}, nil
}

// maxLevelTabLeaves caps the memoized level table at 2048² = 4 MiB; larger
// machines fall back to computing SharedLevel per transfer.
const maxLevelTabLeaves = 2048

// sharedLevel returns the link level of a transfer between two cores, from
// the lazily built per-pair table when the machine is small enough.
func (n *Network) sharedLevel(src, dst int) int {
	n.levelOnce.Do(n.buildLevelTab)
	if n.levelTab != nil {
		return int(n.levelTab[src*n.mach.Topo.Leaves()+dst])
	}
	return n.mach.Topo.SharedLevel(src, dst)
}

func (n *Network) buildLevelTab() {
	topo := n.mach.Topo
	leaves := topo.Leaves()
	if leaves > maxLevelTabLeaves || topo.Depth() > 255 {
		return
	}
	tab := make([]uint8, leaves*leaves)
	for a := 0; a < leaves; a++ {
		row := tab[a*leaves : (a+1)*leaves]
		for b := 0; b < leaves; b++ {
			row[b] = uint8(topo.SharedLevel(a, b))
		}
	}
	n.levelTab = tab
}

// Machine returns the performance model this network was built from.
func (n *Network) Machine() *Machine { return n.mach }

// SetEventLogging toggles recording of per-transfer XmitEvents (used by the
// hardware-counter experiments; off by default to keep the fast path lean).
// The toggle is ordered with the log: flipping it off under the log lock
// guarantees no transfer appends an event after a subsequent DrainEvents
// returned.
func (n *Network) SetEventLogging(on bool) {
	n.logMu.Lock()
	n.logging.Store(on)
	n.logMu.Unlock()
}

// SetWaitObserver installs (or removes, with nil) the NIC busy-wait
// observer. Must be called before the simulation runs.
func (n *Network) SetWaitObserver(fn func(node int, waitNs int64)) { n.waitObs = fn }

// DrainEvents returns and clears the recorded transmit events and starts a
// new NIC counter epoch: the per-shard transmit counters are reset along
// with the log, so XmitData/XmitPackets always cover the same window as the
// drained events and per-epoch sums add up to the run's total. Each shard
// resets with an atomic swap — a transfer racing the drain lands its bytes
// wholly in one epoch or the other, never split or lost.
func (n *Network) DrainEvents() []XmitEvent {
	n.logMu.Lock()
	defer n.logMu.Unlock()
	out := n.eventLog
	n.eventLog = nil
	for i := range n.nics {
		for s := range n.nics[i].shards {
			n.nics[i].shards[s].xmitData.Swap(0)
			n.nics[i].shards[s].xmitPkts.Swap(0)
		}
	}
	return out
}

// XmitData returns the cumulative bytes transmitted by the NIC of the given
// node, mirroring the port_xmit_data hardware counter. It sums the per-core
// shards; reads concurrent with traffic see a momentary view, like a real
// hardware counter.
func (n *Network) XmitData(node int) int64 {
	var s int64
	for i := range n.nics[node].shards {
		s += n.nics[node].shards[i].xmitData.Load()
	}
	return s
}

// XmitPackets returns the cumulative message count sent by the node's NIC.
func (n *Network) XmitPackets(node int) int64 {
	var s int64
	for i := range n.nics[node].shards {
		s += n.nics[node].shards[i].xmitPkts.Load()
	}
	return s
}

// Transfer prices a message of size bytes from core src to core dst, where
// the sender's virtual clock reads now (already including the sender
// overhead). It returns the time at which the sender may proceed and the
// time at which the message arrives at the receiver (before the receiver
// overhead). Hardware counters are updated for inter-node transfers.
func (n *Network) Transfer(src, dst int, size int, now int64) (senderFree, arrival int64) {
	senderFree, arrival, _ = n.TransferF(src, dst, size, now)
	return senderFree, arrival
}

// TransferF is Transfer plus the fault the installed injector applied to
// this transmission (the zero Fault when none is installed or it declined).
// A dropped or duplicated message is priced and counted like a normal one —
// the bytes left the card — and the caller enforces the delivery semantics.
func (n *Network) TransferF(src, dst int, size int, now int64) (senderFree, arrival int64, fault Fault) {
	topo := n.mach.Topo
	level := n.sharedLevel(src, dst)
	link := n.mach.Links[level]
	bw := link.Bandwidth
	if n.faults != nil {
		if f, ok := n.faults.TransferFault(src, dst, size, now); ok {
			fault = f
			if fault.BandwidthScale > 0 {
				bw *= fault.BandwidthScale
			}
		}
	}
	xferNs := int64(float64(size) / bw * 1e9)

	start := now
	interNode := level < topo.NodeDepth()
	if interNode {
		node := topo.NodeOf(src)
		nic := &n.nics[node]
		if n.mach.Contention {
			start = reserve(&nic.busyUntil, now, xferNs)
			if n.waitObs != nil && start > now {
				n.waitObs(node, start-now)
			}
		}
		end := start + xferNs
		sh := &nic.shards[src&(nicShards-1)]
		sh.xmitData.Add(int64(size))
		sh.xmitPkts.Add(1)
		if n.logging.Load() {
			n.logMu.Lock()
			// Re-check under the lock: SetEventLogging(false) + DrainEvents
			// (both lock-ordered) must not see a straggler append.
			if n.logging.Load() {
				n.eventLog = append(n.eventLog, XmitEvent{Node: node, When: end, Bytes: int64(size)})
			}
			n.logMu.Unlock()
		}
	}
	end := start + xferNs
	arrival = end + int64(link.Latency) + int64(fault.ExtraLatency)
	if fault.Duplicate {
		// The spurious copy trails the original by one transfer time.
		fault.DupArrival = arrival + xferNs
	}
	if size <= n.mach.EagerLimit {
		senderFree = now
	} else {
		senderFree = end
	}
	return senderFree, arrival, fault
}

// reserve atomically claims [max(now,busy), max(now,busy)+dur) on the NIC
// and returns the start of the claimed window.
func reserve(busy *atomic.Int64, now, dur int64) int64 {
	for {
		b := busy.Load()
		start := now
		if b > start {
			start = b
		}
		if busy.CompareAndSwap(b, start+dur) {
			return start
		}
	}
}

// FlopTime converts a floating-point operation count into virtual compute
// time using the machine's flop rate.
func (m *Machine) FlopTime(flops float64) time.Duration {
	if m.FlopsPerSecond <= 0 {
		panic("netsim: machine has no FlopsPerSecond; cannot model compute")
	}
	return time.Duration(flops / m.FlopsPerSecond * 1e9)
}

// Generic builds a plausible machine model for an arbitrary topology:
// latency doubles and bandwidth drops at each level away from the leaves,
// anchored at 200 ns / 16 GB/s for a core talking to itself. Use the named
// presets when modelling the paper's testbeds; Generic serves custom
// topology specs.
func Generic(topo *topology.Topology) *Machine {
	depth := topo.Depth()
	links := make([]LinkParams, depth+1)
	lat := 200 * time.Nanosecond
	bw := 16e9
	for l := depth; l >= 0; l-- {
		links[l] = LinkParams{Latency: lat, Bandwidth: bw}
		lat *= 2
		bw /= 1.4
	}
	return &Machine{
		Topo:           topo,
		Links:          links,
		SendOverhead:   250 * time.Nanosecond,
		RecvOverhead:   250 * time.Nanosecond,
		EagerLimit:     64 << 10,
		Contention:     true,
		FlopsPerSecond: 5e9,
	}
}
