package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key/value dimension of a metric (Prometheus label).
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing uint64 metric. All methods are
// safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an int64 metric that can go up and down (in-flight requests,
// active sessions). Safe for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set stores an absolute value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution of int64 observations
// (sizes in bytes, durations in virtual ns). Buckets are defined by
// ascending inclusive upper bounds; observations above the last bound
// land in an implicit +Inf bucket. Safe for concurrent use.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations, summed from the buckets.
func (h *Histogram) Count() (n uint64) {
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []int64 { return append([]int64(nil), h.bounds...) }

// BucketCounts returns the per-bucket (non-cumulative) counts, the last
// entry being the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// ExpBuckets returns n ascending bounds starting at start, multiplying by
// factor: the geometric bucket layouts used for sizes and durations.
func ExpBuckets(start, factor int64, n int) []int64 {
	if start <= 0 || factor < 2 || n <= 0 {
		panic("telemetry: ExpBuckets needs start>0, factor>=2, n>0")
	}
	out := make([]int64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// SizeBuckets is the default message-size layout: 1 B to 1 GiB in powers
// of four.
var SizeBuckets = ExpBuckets(1, 4, 16)

// TimeBuckets is the default duration layout: 64 ns to ~4.3 s in powers
// of four.
var TimeBuckets = ExpBuckets(64, 4, 14)

// metric is one registered instrument with its identity. The three
// string fields are derived from (family, labels) once at registration
// so scrapes never re-sort labels or rebuild keys: key is the full
// registry key, labelSig the label-only signature snapshot sorts by, and
// labelStr the pre-rendered {k="v",...} exposition suffix.
type metric struct {
	family   string
	labels   []Label
	key      string
	labelSig string
	labelStr string
	c        *Counter
	g        *Gauge
	h        *Histogram
}

// kind names the instrument kind of a metric, for error messages.
func (m *metric) kind() string {
	switch {
	case m.c != nil:
		return "counter"
	case m.g != nil:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry is a process-wide metrics registry. Instruments are created
// (or found) by name plus label set; the returned pointers are meant to
// be resolved once and updated lock-free on hot paths. Safe for
// concurrent use.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*metric
	ordered []*metric
	help    map[string]string

	// sorted caches the export-ordered metric list; it is invalidated on
	// registration (rare) instead of being rebuilt per scrape (frequent).
	sorted []*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric), help: make(map[string]string)}
}

// SetHelp registers the # HELP text of a metric family; the Prometheus
// exporter emits it ahead of the family's # TYPE line. Re-registering a
// family with different help text panics — two components disagreeing on
// what a family means is a bug, not a runtime condition.
func (r *Registry) SetHelp(family, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.help[family]; ok && prev != text {
		panic(fmt.Sprintf("telemetry: metric family %q registered with conflicting help %q vs %q", family, prev, text))
	}
	r.help[family] = text
}

// Help returns the registered help text of a family ("" when unset).
func (r *Registry) Help(family string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.help[family]
}

// metricKey canonicalizes (name, labels) — labels sorted by key.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Counter returns the counter with the given family name and labels,
// creating it on first use. Registering the same identity as a different
// instrument kind panics.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	m := r.lookup(name, labels, func() *metric { return &metric{c: new(Counter)} })
	if m.c == nil {
		panic(fmt.Sprintf("telemetry: duplicate registration of metric %q: already a %s, requested a counter (same name + labels must keep one kind)", name, m.kind()))
	}
	return m.c
}

// Gauge returns the gauge with the given identity, creating it on first
// use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	m := r.lookup(name, labels, func() *metric { return &metric{g: new(Gauge)} })
	if m.g == nil {
		panic(fmt.Sprintf("telemetry: duplicate registration of metric %q: already a %s, requested a gauge (same name + labels must keep one kind)", name, m.kind()))
	}
	return m.g
}

// Histogram returns the histogram with the given identity, creating it
// with the given bucket bounds on first use (later calls reuse the
// original bounds).
func (r *Registry) Histogram(name string, bounds []int64, labels ...Label) *Histogram {
	m := r.lookup(name, labels, func() *metric { return &metric{h: newHistogram(bounds)} })
	if m.h == nil {
		panic(fmt.Sprintf("telemetry: duplicate registration of metric %q: already a %s, requested a histogram (same name + labels must keep one kind)", name, m.kind()))
	}
	return m.h
}

func (r *Registry) lookup(name string, labels []Label, mk func() *metric) *metric {
	ls := sortedLabels(labels)
	key := metricKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		return m
	}
	m := mk()
	m.family = name
	m.labels = ls
	m.key = key
	m.labelSig = metricKey("", ls)
	m.labelStr = labelString(ls, "", "")
	r.byKey[key] = m
	r.ordered = append(r.ordered, m)
	r.sorted = nil
	return m
}

// snapshot returns the registered metrics sorted by family then label
// signature, for deterministic export. The sort order and the slice are
// cached between registrations; callers must treat the result as
// read-only. Every instrument is written in place, so the values read
// through it are exact without a barrier.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sorted == nil {
		r.sorted = append([]*metric(nil), r.ordered...)
		sort.Slice(r.sorted, func(i, j int) bool {
			if r.sorted[i].family != r.sorted[j].family {
				return r.sorted[i].family < r.sorted[j].family
			}
			return r.sorted[i].labelSig < r.sorted[j].labelSig
		})
	}
	return r.sorted
}

// CounterTotal sums the values of every counter of the given family
// across all label sets (e.g. total bytes across ranks and classes).
func (r *Registry) CounterTotal(name string) uint64 {
	var s uint64
	for _, m := range r.snapshot() {
		if m.family == name && m.c != nil {
			s += m.c.Value()
		}
	}
	return s
}
