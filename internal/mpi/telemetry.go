package mpi

import (
	"strconv"

	"mpimon/internal/commitagg"
	"mpimon/internal/faults"
	"mpimon/internal/pml"
	"mpimon/internal/telemetry"
)

// This file wires the telemetry subsystem into the runtime. The contract
// is "disabled = a few nil checks": a World built without WithTelemetry
// leaves Proc.tr and Proc.tm nil and every hook below compiles down to a
// skipped branch (bench/ measures the enabled cost, telemetry.per_msg_ns).

// WithTelemetry attaches a telemetry hub to the world: every rank gets a
// span tracer and a pre-resolved set of metrics instruments, and the
// network reports NIC busy-waits into a per-node histogram. A nil hub is
// allowed and leaves telemetry disabled.
func WithTelemetry(tel *telemetry.Telemetry) Option {
	return func(w *World) { w.tel = tel }
}

// Telemetry returns the world's telemetry hub, or nil when disabled.
func (w *World) Telemetry() *telemetry.Telemetry { return w.tel }

// rankMetrics holds one process's pre-resolved instruments so the hot
// paths never touch the registry. Every counter carries the rank's label,
// so its one writer is the rank and a plain atomic add is the whole cost:
// there is no contention for a batching front to amortize, and a scrape
// reads exact totals with no barrier.
type rankMetrics struct {
	reg  *telemetry.Registry
	rank telemetry.Label

	// Per-class message/byte counters, fed by a pml recorder so they
	// honour the monitoring level and suppression exactly like the
	// counters the introspection library reads.
	msgs  [pml.NumClasses]*telemetry.Counter
	bytes [pml.NumClasses]*telemetry.Counter

	msgSize  *telemetry.Histogram // payload bytes per monitored message
	recvWait *telemetry.Histogram // virtual ns blocked waiting for a message
	latency  *telemetry.Histogram // virtual send-to-arrival ns per received message
	inflight *telemetry.Gauge     // outstanding nonblocking requests

	// Per-communicator traffic counters, resolved lazily per context id,
	// and the last context looked up; owned by the rank goroutine.
	comms    map[int]commCounters
	lastCtx  int
	lastComm commCounters
}

// commCounters are the traffic counters of one communicator on one rank.
type commCounters struct{ msgs, bytes *telemetry.Counter }

// add counts one message of size bytes.
func (cc commCounters) add(size int) {
	cc.msgs.Inc()
	cc.bytes.Add(uint64(size))
}

// wireTelemetry is called by NewWorld after the processes exist.
func (w *World) wireTelemetry() {
	reg := w.tel.Registry()
	for r, p := range w.procs {
		p.tr = w.tel.Rank(r)
		m := &rankMetrics{
			reg:   reg,
			rank:  telemetry.L("rank", strconv.Itoa(r)),
			comms: make(map[int]commCounters),
		}
		for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
			class := telemetry.L("class", cl.String())
			m.msgs[cl] = reg.Counter("mpimon_messages_total", m.rank, class)
			m.bytes[cl] = reg.Counter("mpimon_bytes_total", m.rank, class)
		}
		m.msgSize = reg.Histogram("mpimon_message_size_bytes", telemetry.SizeBuckets, m.rank)
		m.recvWait = reg.Histogram("mpimon_recv_wait_ns", telemetry.TimeBuckets, m.rank)
		m.latency = reg.Histogram("mpimon_message_latency_ns", telemetry.TimeBuckets, m.rank)
		m.inflight = reg.Gauge("mpimon_inflight_requests", m.rank)
		p.tm = m
		p.mon.AddRecorder(func(class pml.Class, dst, size int, when int64) {
			m.msgs[class].Inc()
			m.bytes[class].Add(uint64(size))
			m.msgSize.Observe(int64(size))
		})
	}
	nodes := w.mach.Topo.NumNodes()
	nicWait := make([]*telemetry.Histogram, nodes)
	for i := range nicWait {
		nicWait[i] = reg.Histogram("mpimon_nic_wait_ns", telemetry.TimeBuckets,
			telemetry.L("node", strconv.Itoa(i)))
	}
	w.net.SetWaitObserver(func(node int, waitNs int64) { nicWait[node].Observe(waitNs) })
	w.wireFaultTelemetry(reg)
}

// ftMetrics holds the fault-tolerance counters (cold paths only, so they
// are resolved once here rather than per rank).
type ftMetrics struct {
	procFailures *telemetry.Counter
	revokes      *telemetry.Counter
	shrinks      *telemetry.Counter
}

// wireFaultTelemetry registers the recovery counters and, when a fault
// injector is installed, mirrors its events into per-kind counters.
func (w *World) wireFaultTelemetry(reg *telemetry.Registry) {
	w.ftm = &ftMetrics{
		procFailures: reg.Counter("mpimon_proc_failures_total"),
		revokes:      reg.Counter("mpimon_comm_revocations_total"),
		shrinks:      reg.Counter("mpimon_comm_shrinks_total"),
	}
	if w.inj == nil {
		return
	}
	kinds := [...]*telemetry.Counter{
		faults.EventLatency:   reg.Counter("mpimon_fault_injections_total", telemetry.L("kind", "latency")),
		faults.EventBandwidth: reg.Counter("mpimon_fault_injections_total", telemetry.L("kind", "bandwidth")),
		faults.EventDrop:      reg.Counter("mpimon_fault_injections_total", telemetry.L("kind", "drop")),
		faults.EventDuplicate: reg.Counter("mpimon_fault_injections_total", telemetry.L("kind", "duplicate")),
	}
	w.inj.SetObserver(func(e faults.Event) {
		if int(e.Kind) < len(kinds) && kinds[e.Kind] != nil {
			kinds[e.Kind].Inc()
		}
	})
}

// Telemetry returns the process's span tracer, or nil when the world has
// no telemetry. Library layers above mpi (monitoring, reorder) use it to
// record their own lifecycle events and phase spans on this rank's
// timeline.
func (p *Proc) Telemetry() *telemetry.Rank { return p.tr }

// TelemetryAggStats returns the zero commitagg.Stats: the telemetry
// counters are plain per-rank counters with no commit shard in front, so
// there are no batched updates to report.
func (w *World) TelemetryAggStats() commitagg.Stats { return commitagg.Stats{} }

// comm returns (creating on first use) the traffic counters of a context
// id. Must be called from the rank goroutine.
func (m *rankMetrics) comm(ctx int) commCounters {
	if m.lastComm.msgs != nil && m.lastCtx == ctx {
		return m.lastComm
	}
	cc, ok := m.comms[ctx]
	if !ok {
		l := telemetry.L("ctx", strconv.Itoa(ctx))
		cc = commCounters{
			msgs:  m.reg.Counter("mpimon_comm_messages_total", m.rank, l),
			bytes: m.reg.Counter("mpimon_comm_bytes_total", m.rank, l),
		}
		m.comms[ctx] = cc
	}
	m.lastCtx, m.lastComm = ctx, cc
	return cc
}

// userCtx maps a message's transport context back to the communicator the
// user sees: collective-internal traffic travels on -(ctx+1).
func userCtx(ctx int) int {
	if ctx < 0 {
		return -ctx - 1
	}
	return ctx
}

// spanNoop is the shared disabled-path closure, so c.span costs no
// allocation when telemetry is off.
var spanNoop = func() {}

// span opens a collective (or other library-call) span at the current
// virtual time and returns the closure that ends it; use as
// `defer c.span("bcast")()`.
func (c *Comm) span(name string) func() {
	tr := c.p.tr
	if tr == nil {
		return spanNoop
	}
	p := c.p
	tr.Begin(name, telemetry.KindCollective, p.clock)
	return func() { tr.End(p.clock) }
}

// observeRecvTelemetry records the receive-side telemetry of a matched
// message: how long the receiver was (virtually) blocked, the
// send-to-arrival latency, and a wait span when the clock had to jump.
// before is the receiver's clock when it started waiting.
func (p *Proc) observeRecvTelemetry(m *message, before int64) {
	if p.tm == nil {
		return
	}
	waited := m.arrival - before
	if waited < 0 {
		waited = 0
	}
	p.tm.recvWait.Observe(waited)
	p.tm.latency.Observe(m.arrival - m.sentAt)
	if p.tr != nil && waited > 0 {
		p.tr.Range("recv.wait", telemetry.KindWait, before, m.arrival)
	}
}
