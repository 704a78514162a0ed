package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval: a pass, or a stage of a pass (the wall
// time of one call the harness made into a layer). IDs are 1-based; parent 0
// means a top-level span.
type span struct {
	ID       int
	Parent   int
	Name     string
	Workload string
	Start    time.Duration // since the tracer's origin
	End      time.Duration
}

// tracer is the harness's own in-memory span recorder: spans are kept in a
// slice and written out once, when the benchmark ends. A nil tracer records
// nothing, which is how end-to-end runs pay no tracing cost.
type tracer struct {
	mu       sync.Mutex
	origin   time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{origin: time.Now(), workload: workload} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Start: time.Since(t.origin)})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.origin)
}

// since is the time elapsed on the tracer's clock.
func (t *tracer) since() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.origin)
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// adopt re-parents the spans a child process recorded under one of this
// tracer's spans, shifted to when the child began.
func (t *tracer) adopt(parent int, began time.Duration, spans []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Start += began
		s.End += began
		t.spans = append(t.spans, s)
	}
}

// timed records fn as a top-level span.
func (t *tracer) timed(name string, fn func()) {
	id := t.begin(name, 0)
	fn()
	t.end(id)
}

// stageTime is the summed self time of every span with one name.
type stageTime struct {
	Name  string
	SelfS float64
	Count int
}

// selfTimes returns, per span name, duration minus the part covered by child
// spans, and the share of timed-pass wall time that stage spans cover.
func (t *tracer) selfTimes() (byName []stageTime, cover float64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	acc := map[string]*stageTime{}
	var passWall, stageWall time.Duration
	for _, s := range t.spans {
		e := acc[s.Name]
		if e == nil {
			e = &stageTime{Name: s.Name}
			acc[s.Name] = e
		}
		e.SelfS += (s.End - s.Start - child[s.ID]).Seconds()
		e.Count++
		if s.Name == "pass" {
			passWall += s.End - s.Start
			stageWall += child[s.ID]
		}
	}
	for _, e := range acc {
		byName = append(byName, *e)
	}
	sort.Slice(byName, func(i, j int) bool { return byName[i].SelfS > byName[j].SelfS })
	if passWall > 0 {
		cover = float64(stageWall) / float64(passWall)
	}
	return byName, cover
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev): one complete event per span, the
// span's id and parent in args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		us := func(d time.Duration) float64 { return float64(d) / 1e3 }
		events = append(events, event{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": s.Workload}})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
