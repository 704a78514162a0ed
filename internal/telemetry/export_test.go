package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestPrometheusLabelEscaping pins the exposition-format escaping: label
// values escape exactly backslash, double quote and newline; everything
// else passes through verbatim.
func TestPrometheusLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", L("path", `C:\tmp`), L("msg", "a\"b\nc"), L("utf", "héllo	tab")).Add(1)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `esc_total{msg="a\"b\nc",path="C:\\tmp",utf="héllo	tab"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("escaped sample missing:\nwant %s\ngot  %s", want, out)
	}
	if strings.Contains(out, "\\\\\\\\") {
		t.Fatalf("label value double-escaped:\n%s", out)
	}
}

// TestPrometheusHelp verifies # HELP precedes # TYPE and its text is
// escaped (backslash and newline only; quotes are legal in help).
func TestPrometheusHelp(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("helped_total", "first line\nsecond \\ \"quoted\"")
	reg.Counter("helped_total").Add(3)
	reg.Counter("unhelped_total").Add(4)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	helpLine := `# HELP helped_total first line\nsecond \\ "quoted"`
	hi := strings.Index(out, helpLine)
	ti := strings.Index(out, "# TYPE helped_total counter")
	if hi < 0 || ti < 0 || hi > ti {
		t.Fatalf("want HELP before TYPE for helped_total:\n%s", out)
	}
	if strings.Contains(out, "# HELP unhelped_total") {
		t.Fatalf("family without registered help got a HELP line:\n%s", out)
	}
	if h := reg.Help("helped_total"); !strings.HasPrefix(h, "first line") {
		t.Fatalf("Help() = %q", h)
	}
}

// TestSetHelpConflictPanics: two components disagreeing on a family's
// meaning is a bug.
func TestSetHelpConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.SetHelp("fam_total", "one")
	reg.SetHelp("fam_total", "one") // same text is fine
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("conflicting SetHelp did not panic")
		} else if !strings.Contains(r.(string), "conflicting help") {
			t.Fatalf("panic message %q lacks 'conflicting help'", r)
		}
	}()
	reg.SetHelp("fam_total", "two")
}

// TestDuplicateRegistrationPanicMessage pins the error surface of
// re-registering one identity as another kind.
func TestDuplicateRegistrationPanicMessage(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("kinded", L("a", "1")).Add(1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("kind flip did not panic")
		}
		msg := r.(string)
		for _, want := range []string{"duplicate registration", `"kinded"`, "already a counter", "requested a gauge"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic %q lacks %q", msg, want)
			}
		}
	}()
	reg.Gauge("kinded", L("a", "1"))
}

// TestWritePrometheusMulti merges per-job registries under injected job
// labels: each family header appears exactly once even when the family
// lives in several registries, and injected labels never override a
// metric's own.
func TestWritePrometheusMulti(t *testing.T) {
	fleet := NewRegistry()
	fleet.Gauge("monsvc_jobs").Set(2)

	a := NewRegistry()
	a.SetHelp("job_rows_total", "Rows ingested.")
	a.Counter("job_rows_total").Add(10)
	a.Counter("tagged_total", L("job", "own")).Add(1)
	b := NewRegistry()
	b.Counter("job_rows_total").Add(20)

	var buf bytes.Buffer
	err := WritePrometheusMulti(&buf,
		LabeledRegistry{Reg: fleet},
		LabeledRegistry{Reg: a, Labels: []Label{L("job", "jA"), L("name", "alpha")}},
		LabeledRegistry{Reg: b, Labels: []Label{L("job", "jB")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP job_rows_total Rows ingested.",
		`job_rows_total{job="jA",name="alpha"} 10`,
		`job_rows_total{job="jB"} 20`,
		"monsvc_jobs 2",
		// Metric's own job label wins over injected job="jA"; the
		// non-colliding injected name label still applies.
		`tagged_total{job="own",name="alpha"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("multi exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE job_rows_total counter"); n != 1 {
		t.Fatalf("# TYPE job_rows_total appears %d times, want exactly 1:\n%s", n, out)
	}
	// Headers must precede every sample of their family.
	if strings.Index(out, "# TYPE job_rows_total") > strings.Index(out, `job_rows_total{job="jA"`) {
		t.Fatalf("sample before its # TYPE header:\n%s", out)
	}
}

// chromeEvent and chromeTrace are the Chrome trace document as
// encoding/json writes it, the oracle WriteChromeTrace streams.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func encodeChromeTrace(spans []Span) []byte {
	tr := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	var ranks []int
	for _, s := range spans {
		if !slices.Contains(ranks, s.Rank) {
			ranks = append(ranks, s.Rank)
		}
	}
	slices.Sort(ranks)
	for _, r := range ranks {
		tr.TraceEvents = append(tr.TraceEvents,
			chromeEvent{Name: "process_name", Ph: "M", Pid: r, Args: map[string]any{"name": fmt.Sprintf("rank %d", r)}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: r, Tid: tidCalls, Args: map[string]any{"name": "calls"}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: r, Tid: tidMessages, Args: map[string]any{"name": "messages"}},
		)
	}
	for _, s := range spans {
		ev := chromeEvent{Name: s.Name, Cat: s.Kind.String(), Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: s.Rank, Tid: tidCalls,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "kind": s.Kind.String()}}
		if s.Kind == KindEvent {
			ev.Ph, ev.Dur, ev.Args["s"] = "i", 0, "t"
		}
		if s.Kind == KindMessage {
			ev.Tid = tidMessages
			ev.Args["src"], ev.Args["dst"], ev.Args["bytes"], ev.Args["class"], ev.Args["ctx"] = s.Src, s.Dst, s.Bytes, s.Class, s.Ctx
		}
		tr.TraceEvents = append(tr.TraceEvents, ev)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(tr); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// oddTexts are names and classes that need escaping in JSON or quoting in
// CSV: HTML characters, quotes, separators, control and line-separator
// characters, a leading space, invalid UTF-8 and csv's `\.`.
var oddTexts = []string{"", "bcast", "phase,one", `say "hi"`, "two\nlines", "a<b>&c", "tab\there", " lead",
	"\u2028\u2029", "\xff\xfe", "héllo", `back\slash`, `\.`, ",", `"`, "\x00\x1f", "cr\rlf"}

// TestChromeTraceMatchesEncodingJSON streams random spans of every kind,
// an unknown kind included, with the odd texts, negative and extreme times
// and zero durations, and requires encoding/json's document byte for byte.
func TestChromeTraceMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	times := []int64{0, 1, -1, 999, 1001, 123456789, -5000, math.MaxInt64, math.MinInt64, 1 << 53}
	var spans []Span
	for i := 0; i < 2000; i++ {
		s := Span{ID: rng.Uint64() >> uint(rng.Intn(64)), Parent: uint64(rng.Intn(3)), Rank: rng.Intn(5) - 1,
			Name: oddTexts[rng.Intn(len(oddTexts))], Kind: Kind(rng.Intn(6)), Start: times[rng.Intn(len(times))],
			Src: rng.Intn(9) - 1, Dst: math.MaxInt32 - rng.Intn(2), Bytes: rng.Int63() - rng.Int63(),
			Class: oddTexts[rng.Intn(len(oddTexts))], Ctx: -rng.Intn(3)}
		s.End = s.Start + times[rng.Intn(len(times))]
		spans = append(spans, s)
	}
	for _, in := range [][]Span{nil, spans[:1], spans} {
		var got bytes.Buffer
		if err := WriteChromeTrace(&got, in); err != nil {
			t.Fatal(err)
		}
		if want := encodeChromeTrace(in); !bytes.Equal(got.Bytes(), want) {
			i := 0
			for i < min(got.Len(), len(want)) && got.Bytes()[i] == want[i] {
				i++
			}
			t.Fatalf("%d spans: stream differs from encoding/json at byte %d:\ngot  %.80q\nwant %.80q",
				len(in), i, got.Bytes()[i:], want[i:])
		}
	}
}

// TestCSVQuotesFreeText writes spans whose names and classes hold commas,
// quotes, newlines and the other odd texts: every row reads back through
// csv.Reader with 12 fields and the same name and class, and each text
// field is written exactly as csv.Writer writes it.
func TestCSVQuotesFreeText(t *testing.T) {
	var spans []Span
	for i, name := range oddTexts {
		if strings.Contains(name, "\r") {
			continue // csv.Reader reads a quoted CR LF as LF
		}
		class := oddTexts[(i+3)%len(oddTexts)]
		if strings.Contains(class, "\r") {
			class = "p2p"
		}
		spans = append(spans, Span{ID: uint64(i + 1), Rank: 1, Name: name, Kind: KindMessage, Start: 10, End: 20,
			Src: 0, Dst: 1, Bytes: 8, Class: class, Ctx: 2})
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, spans); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(spans)+1 {
		t.Fatalf("%d rows, want a header and %d", len(rows), len(spans))
	}
	for i, s := range spans {
		if row := rows[i+1]; len(row) != 12 || row[4] != s.Name || row[10] != s.Class {
			t.Errorf("span %d (%q, %q) read back as %q", i, s.Name, s.Class, row)
		}
	}
	for _, f := range append(oddTexts, "  ", "\u00a0nbsp", "x\r") {
		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		if err := cw.Write([]string{f}); err != nil {
			t.Fatal(err)
		}
		cw.Flush()
		if got := string(appendCSVField(nil, f)) + "\n"; got != want.String() {
			t.Errorf("field %q written as %q, csv.Writer writes %q", f, got, want.String())
		}
	}
}

var errDiskFull = errors.New("disk full")

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestExportsReturnWriteErrors: both streaming writers return the
// writer's error, whether it comes at the final write or at a flush of a
// full buffer partway through the spans.
func TestExportsReturnWriteErrors(t *testing.T) {
	spans := make([]Span, 2000) // well over flushAt bytes in either format
	for i := range spans {
		spans[i] = Span{ID: uint64(i + 1), Name: "msg:p2p", Kind: KindMessage, Class: "p2p", Start: int64(i), End: int64(i) + 7}
	}
	for _, n := range []int{1, len(spans)} {
		if err := WriteChromeTrace(failWriter{}, spans[:n]); !errors.Is(err, errDiskFull) {
			t.Errorf("WriteChromeTrace of %d spans returned %v", n, err)
		}
		if err := WriteCSV(failWriter{}, spans[:n]); !errors.Is(err, errDiskFull) {
			t.Errorf("WriteCSV of %d spans returned %v", n, err)
		}
	}
}
