// Package telemetry is the unified observability substrate of the runtime:
// span tracing over virtual time, a metrics registry (counters, gauges,
// histograms), and pluggable exporters (Chrome trace-event JSON, CSV,
// Prometheus text exposition).
//
// Where package pml counts "how much, to whom", telemetry records "when"
// and *structure*: every collective operation opens a span, and the
// point-to-point messages it decomposes into become child spans carrying
// (src, dst, bytes, class), so the paper's central property — collectives
// become point-to-point below the API — is directly visible as a causal
// tree. The message spans are also the post-mortem send trace that
// online.PhaseMatrices splits into phases. The same substrate
// carries monitoring-session lifecycle events and the phase spans of the
// dynamic rank reordering (monitor, treematch, split, redistribute).
//
// Design rules:
//
//   - Disabled means nil: a World without telemetry carries nil hooks and
//     the hot paths pay only a nil check (verified by the telemetry
//     overhead experiment in internal/exp).
//   - One writer per rank: span recording goes through a per-rank tracer
//     driven by that rank's goroutine or coroutine; a mutex makes readers
//     during the run (Spans, OpenDepth), post-run export and the race
//     detector happy without contention.
//   - The span log is compact and pointer-free: a finished span is staged
//     in its Rank as a 56-byte record, and stageLen at a time the records
//     are encoded as varints against the one before, about 12 bytes a
//     span, into 16 KiB chunks the GC never scans. Its (Name, Class) pair
//     is an index into the hub's interned names, and Spans decodes the log
//     into []Span on read.
//   - Metrics are lock-free on the hot path: instruments are resolved
//     once at wiring time and updated with atomics.
package telemetry

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
)

// Kind classifies a span.
type Kind uint8

// Span kinds. KindCollective spans bracket collective operations (and
// other library calls like Split or Fence); KindMessage spans are the
// point-to-point transmissions they decompose into; KindWait spans cover
// virtual time a rank spent blocked for a message; KindPhase spans mark
// application-level phases (the reordering pipeline); KindEvent spans are
// zero-duration lifecycle markers (monitoring sessions).
const (
	KindCollective Kind = iota
	KindMessage
	KindWait
	KindPhase
	KindEvent
)

// String returns the kind name used by the exporters.
func (k Kind) String() string {
	switch k {
	case KindCollective:
		return "collective"
	case KindMessage:
		return "message"
	case KindWait:
		return "wait"
	case KindPhase:
		return "phase"
	case KindEvent:
		return "event"
	default:
		return "unknown"
	}
}

// Span is one recorded interval (or instant) of a rank's virtual
// timeline. Parent is 0 for root spans; message spans carry the transfer
// endpoints and payload, other kinds leave Src/Dst at -1.
type Span struct {
	ID     uint64
	Parent uint64
	Rank   int
	Name   string
	Kind   Kind
	Start  int64 // virtual ns
	End    int64 // virtual ns
	Src    int   // sender world rank (message spans)
	Dst    int   // destination world rank (message spans)
	Bytes  int64 // payload bytes (message spans)
	Class  string
	Ctx    int // communicator context id, -1 when not applicable
}

// Duration returns End-Start in virtual ns.
func (s Span) Duration() int64 { return s.End - s.Start }

// Telemetry is one run's telemetry hub: per-rank span tracers plus a
// shared metrics registry. Safe for concurrent use; rank tracers are
// created lazily so one hub can observe several worlds in sequence (the
// experiment harnesses reuse a hub across parameter sweeps).
type Telemetry struct {
	nextID atomic.Uint64
	reg    *Registry

	mu    sync.Mutex
	ranks map[int]*Rank
	names []spanName          // interned (Name, Class) pairs, append-only
	index map[spanName]uint16 // position of each pair in names
}

// spanName is one interned (Name, Class) pair.
type spanName struct{ name, class string }

// New builds an empty telemetry hub.
func New() *Telemetry {
	return &Telemetry{reg: NewRegistry(), ranks: make(map[int]*Rank), index: make(map[spanName]uint16)}
}

// Registry returns the hub's metrics registry.
func (t *Telemetry) Registry() *Registry { return t.reg }

// Rank returns (creating it on first use) the span tracer of a world
// rank, written only by that rank's goroutine or coroutine.
func (t *Telemetry) Rank(i int) *Rank {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.ranks[i]
	if !ok {
		r = &Rank{t: t, rank: i, names: [2]map[string]uint16{{}, {}}}
		t.ranks[i] = r
	}
	return r
}

// Spans returns every finished span of every rank, ordered by start time
// (ties broken by span id, which follows creation order).
func (t *Telemetry) Spans() []Span {
	t.mu.Lock()
	ranks := make([]*Rank, 0, len(t.ranks))
	for _, r := range t.ranks {
		ranks = append(ranks, r)
	}
	t.mu.Unlock()
	var out []Span
	for _, r := range ranks {
		out = append(out, r.Spans()...)
	}
	slices.SortFunc(out, func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
	})
	return out
}

// id hands out process-wide unique span ids starting at 1 (0 is "no
// parent").
func (t *Telemetry) id() uint64 { return t.nextID.Add(1) }

// intern returns the index of the pair a span name (msg 0) or a Message
// class (msg 1) names, adding it on first use.
func (t *Telemetry) intern(text string, msg int) uint16 {
	n := spanName{name: text}
	if msg == 1 {
		n = spanName{name: "msg:" + text, class: text}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.index[n]; !ok {
		if len(t.names) == 1<<16 {
			panic("telemetry: more than 65536 distinct span names in one hub")
		}
		t.index[n], t.names = uint16(len(t.names)), append(t.names, n)
	}
	return t.index[n]
}

// stageLen is the record count of a rank's stage, the few finished spans
// kept in the Rank itself until they move to the log together. The stage
// stays in cache because its rank touches it on every span; a chunk's tail
// has left the cache by the time its rank writes again when hundreds of
// ranks take turns.
const stageLen = 8

// Rank records the spans of one world rank. Begin/End calls nest; the
// innermost open span is the parent of anything recorded inside it.
type Rank struct {
	t    *Telemetry
	rank int

	mu     sync.Mutex
	open   []record
	chunks [][]byte // the finished spans before the stage, encoded in completion order
	logged int      // records in chunks
	last   record   // the last record in chunks, the base of the next one's deltas
	stage  [stageLen]record
	staged int // records in stage, the latest finished spans
	// Hub indexes of the span names ([0]) and Message classes ([1]) used, and
	// the last of each; apart, Message("p2p") and Range("p2p") never collide.
	names  [2]map[string]uint16
	memo   [2]string
	memoI  [2]uint16
	memoOK [2]bool // memo and memoI hold a lookup
}

// Begin opens a span at the given virtual time; close it with End.
func (r *Rank) Begin(name string, kind Kind, startNs int64) {
	r.mu.Lock()
	r.open = append(r.open, record{id: r.t.id(), parent: r.topLocked(), name: r.nameLocked(name, 0),
		kind: kind, start: startNs, src: -1, dst: -1, ctx: -1})
	r.mu.Unlock()
}

// End closes the innermost open span at the given virtual time.
func (r *Rank) End(endNs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.open) == 0 {
		panic("telemetry: End without matching Begin")
	}
	r.open[len(r.open)-1].end = endNs
	*r.nextLocked() = r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
}

// Message records a completed point-to-point transmission span as a child
// of the innermost open span: start is the virtual time the message was
// buffered on the sender, end the arrival of its last byte at the
// receiver.
func (r *Rank) Message(class string, ctx, src, dst int, bytes, startNs, endNs int64) {
	r.mu.Lock()
	*r.nextLocked() = record{id: r.t.id(), parent: r.topLocked(), name: r.nameLocked(class, 1), kind: KindMessage,
		start: startNs, end: endNs, src: int32(src), dst: int32(dst), bytes: bytes, ctx: int32(ctx)}
	r.mu.Unlock()
}

// Range records a completed interval span (e.g. a receive wait) as a
// child of the innermost open span.
func (r *Rank) Range(name string, kind Kind, startNs, endNs int64) {
	r.mu.Lock()
	*r.nextLocked() = record{id: r.t.id(), parent: r.topLocked(), name: r.nameLocked(name, 0), kind: kind,
		start: startNs, end: endNs, src: -1, dst: -1, ctx: -1}
	r.mu.Unlock()
}

// Event records an instantaneous marker (zero-duration span).
func (r *Rank) Event(name string, atNs int64) {
	r.Range(name, KindEvent, atNs, atNs)
}

// OpenDepth returns the number of currently open spans (diagnostics).
func (r *Rank) OpenDepth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.open)
}

// Spans returns a copy of the finished spans in completion order.
func (r *Rank) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.t.mu.Lock()
	names := r.t.names // every index in the log was interned before it was written
	r.t.mu.Unlock()
	n := r.logged + r.staged
	if n == 0 {
		return nil
	}
	out := make([]Span, 0, n)
	var s record
	for _, c := range r.chunks {
		for i := 0; i < len(c); {
			i += s.decodeNext(c[i:])
			out = r.appendSpan(out, &s, names)
		}
	}
	for j := range r.stage[:r.staged] {
		out = r.appendSpan(out, &r.stage[j], names)
	}
	return out
}

// appendSpan appends the span of a record to out.
func (r *Rank) appendSpan(out []Span, s *record, names []spanName) []Span {
	n := names[s.name]
	return append(out, Span{ID: s.id, Parent: s.parent, Rank: r.rank, Name: n.name, Kind: s.kind,
		Start: s.start, End: s.end, Src: int(s.src), Dst: int(s.dst), Bytes: s.bytes, Class: n.class, Ctx: int(s.ctx)})
}

// nextLocked returns the stage slot of the next finished span, first
// encoding a full stage onto the log.
func (r *Rank) nextLocked() *record {
	if r.staged == stageLen {
		r.flushLocked()
	}
	r.staged++
	return &r.stage[r.staged-1]
}

// flushLocked encodes the full stage onto the last chunk, each record
// against the one before it, first starting a new chunk if the stage might
// not fit: no record straddles two chunks.
func (r *Rank) flushLocked() {
	k := len(r.chunks) - 1
	if k < 0 || cap(r.chunks[k])-len(r.chunks[k]) < stageLen*maxRecordLen {
		r.chunks = append(r.chunks, make([]byte, 0, chunkBytes))
		k++
	}
	c, prev := r.chunks[k], &r.last
	w, i := c[len(c):len(c)+stageLen*maxRecordLen], 0
	for j := range r.stage {
		i = r.stage[j].putNext(w, i, prev)
		prev = &r.stage[j]
	}
	r.chunks[k], r.last = c[:len(c)+i], *prev
	r.logged += stageLen
	r.staged = 0
}

// nameLocked returns the hub index of a span name (msg 0) or a Message
// class (msg 1). Only a rank's first use of a text takes the hub's lock.
func (r *Rank) nameLocked(text string, msg int) uint16 {
	if !r.memoOK[msg] || r.memo[msg] != text {
		i, ok := r.names[msg][text]
		if !ok {
			i = r.t.intern(text, msg)
			r.names[msg][text] = i
		}
		r.memo[msg], r.memoI[msg], r.memoOK[msg] = text, i, true
	}
	return r.memoI[msg]
}

func (r *Rank) topLocked() uint64 {
	if len(r.open) == 0 {
		return 0
	}
	return r.open[len(r.open)-1].id
}
