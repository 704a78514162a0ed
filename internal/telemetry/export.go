package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Chrome trace thread ids: call spans (collectives, waits, phases) render
// on one lane per rank, message transfers on a second lane, so a message
// that outlives its enclosing collective (eager send drained after the
// sender moved on) cannot break the nesting of the call lane.
const (
	tidCalls    = 0
	tidMessages = 1
)

// WriteChromeTrace serializes spans as a Chrome trace-event JSON object
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// loadable in Perfetto and chrome://tracing, with timestamps in virtual
// microseconds. Each rank becomes a process (pid = rank); call spans and
// message spans occupy separate threads of it. Span identity and causality
// survive in args.id / args.parent, which is what the tests (and scripts)
// use to reconstruct the collective -> p2p decomposition tree.
//
// Events are written one at a time, byte for byte as encoding/json writes
// the document of {name, cat, ph, ts, dur, pid, tid, args} events with
// args a map: fields in that order, cat and dur omitted when empty, args
// keys sorted, strings escaped HTML-safe.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	ranks := map[int]bool{}
	for _, s := range spans {
		ranks[s.Rank] = true
	}
	rankList := make([]int, 0, len(ranks))
	for r := range ranks {
		rankList = append(rankList, r)
	}
	sort.Ints(rankList)
	b := append(make([]byte, 0, flushAt+1<<10), `{"traceEvents":[`...)
	sep := ""
	for _, r := range rankList {
		b = fmt.Appendf(b, `%s{"name":"process_name","ph":"M","ts":0,"pid":%d,"tid":%d,"args":{"name":"rank %d"}}`, sep, r, tidCalls, r)
		b = fmt.Appendf(b, `,{"name":"thread_name","ph":"M","ts":0,"pid":%d,"tid":%d,"args":{"name":"calls"}}`, r, tidCalls)
		b = fmt.Appendf(b, `,{"name":"thread_name","ph":"M","ts":0,"pid":%d,"tid":%d,"args":{"name":"messages"}}`, r, tidMessages)
		sep = ","
		var err error
		if b, err = flushFull(w, b); err != nil {
			return err
		}
	}
	strs := jsonStrings{}
	for i := range spans {
		s := &spans[i]
		kind := strs.quote(s.Kind.String())
		b = append(b, sep...)
		sep = ","
		b = append(b, `{"name":`...)
		b = append(b, strs.quote(s.Name)...)
		b = append(b, `,"cat":`...)
		b = append(b, kind...)
		ph, tid, dur := "X", tidCalls, s.End-s.Start
		switch s.Kind {
		case KindEvent:
			ph, dur = "i", 0
		case KindMessage:
			tid = tidMessages
		}
		b = append(b, `,"ph":"`...)
		b = append(b, ph...)
		b = append(b, `","ts":`...)
		b = appendMicros(b, s.Start)
		if dur != 0 {
			b = append(b, `,"dur":`...)
			b = appendMicros(b, dur)
		}
		b = append(b, `,"pid":`...)
		b = strconv.AppendInt(b, int64(s.Rank), 10)
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		b = append(b, `,"args":{`...)
		if s.Kind == KindMessage {
			b = append(b, `"bytes":`...)
			b = strconv.AppendInt(b, s.Bytes, 10)
			b = append(b, `,"class":`...)
			b = append(b, strs.quote(s.Class)...)
			b = append(b, `,"ctx":`...)
			b = strconv.AppendInt(b, int64(s.Ctx), 10)
			b = append(b, `,"dst":`...)
			b = strconv.AppendInt(b, int64(s.Dst), 10)
			b = append(b, ',')
		}
		b = append(b, `"id":`...)
		b = strconv.AppendUint(b, s.ID, 10)
		b = append(b, `,"kind":`...)
		b = append(b, kind...)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, s.Parent, 10)
		switch s.Kind {
		case KindEvent:
			b = append(b, `,"s":"t"`...)
		case KindMessage:
			b = append(b, `,"src":`...)
			b = strconv.AppendInt(b, int64(s.Src), 10)
		}
		b = append(b, "}}"...)
		var err error
		if b, err = flushFull(w, b); err != nil {
			return err
		}
	}
	_, err := w.Write(append(b, `],"displayTimeUnit":"ns"}`+"\n"...))
	return err
}

// flushAt is the buffered output at which the span writers pass it on.
const flushAt = 32 << 10

// flushFull writes b to w and empties it once it holds flushAt bytes.
func flushFull(w io.Writer, b []byte) ([]byte, error) {
	if len(b) < flushAt {
		return b, nil
	}
	_, err := w.Write(b)
	return b[:0], err
}

// appendMicros appends ns/1e3 as encoding/json writes that float64. Its
// magnitude is at least 1e-3 and below 1e16, so json never switches to
// exponent form.
func appendMicros(b []byte, ns int64) []byte {
	return strconv.AppendFloat(b, float64(ns)/1e3, 'f', -1, 64)
}

// jsonStrings memoizes the JSON encoding of the few distinct strings a
// trace repeats: span names, classes and kinds.
type jsonStrings map[string][]byte

func (m jsonStrings) quote(s string) []byte {
	q, ok := m[s]
	if !ok {
		q, _ = json.Marshal(s) // a string always marshals
		m[s] = q
	}
	return q
}

// WriteCSV serializes spans as CSV, one row per span, header included. The
// name and class are free text, quoted as encoding/csv's Writer quotes a
// field; no other field can need it.
func WriteCSV(w io.Writer, spans []Span) error {
	b := append(make([]byte, 0, flushAt+1<<10), "id,parent,rank,kind,name,start_ns,end_ns,src,dst,bytes,class,ctx\n"...)
	for i := range spans {
		s := &spans[i]
		b = strconv.AppendUint(b, s.ID, 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, s.Parent, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.Rank), 10)
		b = append(b, ',')
		b = append(b, s.Kind.String()...)
		b = append(b, ',')
		b = appendCSVField(b, s.Name)
		for _, v := range [...]int64{s.Start, s.End, int64(s.Src), int64(s.Dst), s.Bytes} {
			b = append(b, ',')
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, ',')
		b = appendCSVField(b, s.Class)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(s.Ctx), 10)
		b = append(b, '\n')
		var err error
		if b, err = flushFull(w, b); err != nil {
			return err
		}
	}
	_, err := w.Write(b)
	return err
}

// appendCSVField appends a field as encoding/csv's Writer writes it:
// between double quotes, with each quote doubled, when it is `\.`, holds
// a comma, quote, CR or LF, or starts with a space; verbatim otherwise.
func appendCSVField(b []byte, f string) []byte {
	r, _ := utf8.DecodeRuneInString(f)
	if f != `\.` && !strings.ContainsAny(f, ",\"\r\n") && (f == "" || !unicode.IsSpace(r)) {
		return append(b, f...)
	}
	b = append(b, '"')
	for i := 0; i < len(f); i++ {
		if f[i] == '"' {
			b = append(b, '"')
		}
		b = append(b, f[i])
	}
	return append(b, '"')
}

// WritePrometheus serializes the registry in the Prometheus text
// exposition format (version 0.0.4): one # HELP (when registered) and
// # TYPE comment per family, counters/gauges as plain samples, histograms
// as cumulative _bucket series plus _sum and _count. Label values are
// escaped per the format (backslash, double quote, newline).
func WritePrometheus(w io.Writer, r *Registry) error {
	return WritePrometheusMulti(w, LabeledRegistry{Reg: r})
}

// LabeledRegistry is one registry of a multi-registry exposition, with
// labels injected into every sample it contributes (the monitoring
// daemon's per-job registries exported under one job="..." label each).
type LabeledRegistry struct {
	Reg    *Registry
	Labels []Label
}

// WritePrometheusMulti merges several registries into one exposition
// document. Families are interleaved so each # HELP/# TYPE header appears
// exactly once even when the same family exists in many registries (the
// format forbids repeating them); within a family, samples keep the
// per-registry deterministic order. Injected labels are merged with each
// metric's own (per-metric labels win on key collision).
func WritePrometheusMulti(w io.Writer, regs ...LabeledRegistry) error {
	type sample struct {
		m     *metric
		extra []Label
	}
	byFamily := map[string][]sample{}
	help := map[string]string{}
	var families []string
	for _, lr := range regs {
		if lr.Reg == nil {
			continue
		}
		for _, m := range lr.Reg.snapshot() {
			if _, ok := byFamily[m.family]; !ok {
				families = append(families, m.family)
			}
			byFamily[m.family] = append(byFamily[m.family], sample{m: m, extra: lr.Labels})
			if h := lr.Reg.Help(m.family); h != "" && help[m.family] == "" {
				help[m.family] = h
			}
		}
	}
	sort.Strings(families)
	bw := bufio.NewWriter(w)
	for _, fam := range families {
		samples := byFamily[fam]
		if h := help[fam]; h != "" {
			if _, err := fmt.Fprintf(bw, "# HELP %s %s\n", fam, escapeHelp(h)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "# TYPE %s %s\n", fam, samples[0].m.kind()); err != nil {
			return err
		}
		for _, s := range samples {
			// The common single-registry scrape reuses the label string
			// rendered at registration; only injected labels re-render.
			labels, plain := s.m.labels, s.m.labelStr
			if len(s.extra) > 0 {
				labels = mergeLabels(s.m.labels, s.extra)
				plain = labelString(labels, "", "")
			}
			if err := writeSample(bw, s.m, labels, plain); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one instrument's sample lines: labels feed the
// histogram "le" rendering, plain is the pre-rendered {k="v"} suffix for
// every sample without an extra pair.
func writeSample(bw *bufio.Writer, m *metric, labels []Label, plain string) error {
	switch {
	case m.c != nil:
		_, err := fmt.Fprintf(bw, "%s%s %d\n", m.family, plain, m.c.Value())
		return err
	case m.g != nil:
		_, err := fmt.Fprintf(bw, "%s%s %d\n", m.family, plain, m.g.Value())
		return err
	case m.h != nil:
		var cum uint64
		counts := m.h.BucketCounts()
		bounds := m.h.Bounds()
		for i, b := range bounds {
			cum += counts[i]
			if _, err := fmt.Fprintf(bw, "%s_bucket%s %d\n", m.family, labelString(labels, "le", fmt.Sprint(b)), cum); err != nil {
				return err
			}
		}
		cum += counts[len(counts)-1]
		if _, err := fmt.Fprintf(bw, "%s_bucket%s %d\n", m.family, labelString(labels, "le", "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%s_sum%s %d\n", m.family, plain, m.h.Sum()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(bw, "%s_count%s %d\n", m.family, plain, cum) // this read's +Inf: Observe cannot split them
		return err
	}
	return nil
}

// mergeLabels unions a metric's own labels with injected ones, sorted by
// key; the metric's own value wins when both define a key. Returns own
// unchanged when nothing is injected (the common single-registry path).
func mergeLabels(own, extra []Label) []Label {
	if len(extra) == 0 {
		return own
	}
	out := append([]Label(nil), own...)
	for _, e := range extra {
		found := false
		for _, l := range own {
			if l.Key == e.Key {
				found = true
				break
			}
		}
		if !found {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline become \\, \" and \n. Everything
// else — including tabs and non-ASCII — passes through verbatim (the
// format escapes exactly these three).
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes # HELP text: only backslash and newline (quotes are
// legal in help text).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// labelString renders {k="v",...}; extraKey/extraVal append one more pair
// (the histogram "le" bound). Empty label sets render as "".
func labelString(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
