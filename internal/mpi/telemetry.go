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
// skipped branch (verified by exp.TelemetryOverhead).

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
// paths never touch the registry.
type rankMetrics struct {
	reg  *telemetry.Registry
	rank telemetry.Label

	// agg is the rank's commit-on-threshold shard: per-message counter
	// bumps land in rank-local padded cells and fold into the shared
	// registry counters only on commit (threshold, virtual interval, or
	// a scrape/snapshot barrier via the registry's flusher). This is
	// what removes the shared-cache-line traffic the per-message atomics
	// used to pay.
	agg *commitagg.Shard

	// Per-class message/byte counter cells, fed by a pml recorder so
	// they honour the monitoring level and suppression exactly like the
	// counters the introspection library reads.
	msgs  [pml.NumClasses]*commitagg.Cell
	bytes [pml.NumClasses]*commitagg.Cell

	msgSize  *telemetry.Histogram // payload bytes per monitored message
	recvWait *telemetry.Histogram // virtual ns blocked waiting for a message
	latency  *telemetry.Histogram // virtual send-to-arrival ns per received message
	inflight *telemetry.Gauge     // outstanding nonblocking requests

	// Per-communicator traffic counter cells, resolved lazily per
	// context id; the maps are owned by the rank goroutine.
	commMsgs  map[int]*commitagg.Cell
	commBytes map[int]*commitagg.Cell
}

// wireTelemetry is called by NewWorld after the processes exist.
func (w *World) wireTelemetry() {
	reg := w.tel.Registry()
	for r, p := range w.procs {
		p.tr = w.tel.Rank(r)
		m := &rankMetrics{
			reg:       reg,
			rank:      telemetry.L("rank", strconv.Itoa(r)),
			agg:       commitagg.NewShard(w.aggPol),
			commMsgs:  make(map[int]*commitagg.Cell),
			commBytes: make(map[int]*commitagg.Cell),
		}
		for cl := pml.Class(0); cl < pml.NumClasses; cl++ {
			class := telemetry.L("class", cl.String())
			m.msgs[cl] = m.agg.NewCell(counterSink(reg.Counter("mpimon_messages_total", m.rank, class)))
			m.bytes[cl] = m.agg.NewCell(counterSink(reg.Counter("mpimon_bytes_total", m.rank, class)))
		}
		m.msgSize = reg.Histogram("mpimon_message_size_bytes", telemetry.SizeBuckets, m.rank)
		m.recvWait = reg.Histogram("mpimon_recv_wait_ns", telemetry.TimeBuckets, m.rank)
		m.latency = reg.Histogram("mpimon_message_latency_ns", telemetry.TimeBuckets, m.rank)
		m.inflight = reg.Gauge("mpimon_inflight_requests", m.rank)
		p.tm = m
		// Every registry read (scrape, CounterTotal, export) is a commit
		// barrier for this rank's pending deltas.
		reg.AddFlusher(m.agg.Flush)
		p.mon.AddRecorder(func(class pml.Class, dst, size int, when int64) {
			m.agg.Add(m.msgs[class], 1, when)
			m.agg.Add(m.bytes[class], int64(size), when)
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

// counterSink adapts a monotonically increasing counter to a commitagg
// sink; the batched deltas are always non-negative.
func counterSink(c *telemetry.Counter) func(int64) {
	return func(d int64) { c.Add(uint64(d)) }
}

// TelemetryAggStats sums the per-rank telemetry commit shards: how many
// counter updates the world recorded and how many registry folds they
// amortized to. Zero without telemetry.
func (w *World) TelemetryAggStats() commitagg.Stats {
	var st commitagg.Stats
	for _, p := range w.procs {
		if p.tm != nil {
			st = st.Add(p.tm.agg.Stats())
		}
	}
	return st
}

// comm returns (creating on first use) the per-communicator traffic
// counter cells of a context id. Must be called from the rank goroutine.
func (m *rankMetrics) comm(ctx int) (*commitagg.Cell, *commitagg.Cell) {
	cm, ok := m.commMsgs[ctx]
	if !ok {
		l := telemetry.L("ctx", strconv.Itoa(ctx))
		cm = m.agg.NewCell(counterSink(m.reg.Counter("mpimon_comm_messages_total", m.rank, l)))
		m.commMsgs[ctx] = cm
		m.commBytes[ctx] = m.agg.NewCell(counterSink(m.reg.Counter("mpimon_comm_bytes_total", m.rank, l)))
	}
	return cm, m.commBytes[ctx]
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
