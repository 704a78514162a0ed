package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mpimon/internal/telemetry"
)

// cfg builds the test baseline configuration, discarding output.
func cfg(workload string, np int, mutate func(*config)) config {
	c := config{
		workload:  workload,
		np:        np,
		placement: "rr",
		iters:     2,
		bytes:     1024,
		class:     "B",
		seed:      1,
		stdout:    new(bytes.Buffer),
	}
	if mutate != nil {
		mutate(&c)
	}
	return c
}

func TestRunWorkloads(t *testing.T) {
	for _, wl := range []string{"ring", "stencil", "groups", "bcast", "reduce"} {
		if err := run(cfg(wl, 16, nil)); err != nil {
			t.Fatalf("workload %s: %v", wl, err)
		}
	}
}

func TestRunCGWorkload(t *testing.T) {
	if err := run(cfg("cg", 16, func(c *config) { c.placement = "packed"; c.iters = 1; c.bytes = 0; c.class = "S" })); err != nil {
		t.Fatal(err)
	}
	if err := run(cfg("cg", 16, func(c *config) { c.placement = "packed"; c.iters = 1; c.bytes = 0; c.class = "Z" })); err == nil {
		t.Fatal("unknown CG class should fail")
	}
}

func TestRunWithReorderAndAnalysis(t *testing.T) {
	if err := run(cfg("groups", 24, func(c *config) {
		c.iters = 3
		c.bytes = 65536
		c.reorder = true
		c.matrix = true
		c.analyze = true
	})); err != nil {
		t.Fatal(err)
	}
}

// TestRunCustomTopologyAndTrace: the post-mortem message trace is the
// -telemetry CSV; a ring run writes one message row per send, each 512 B to
// the next rank.
func TestRunCustomTopologyAndTrace(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "run.csv")
	if err := run(cfg("ring", 8, func(c *config) {
		c.topoSpec = "2x2x2"
		c.placement = "random"
		c.bytes = 512
		c.telemetry = traceFile
		c.seed = 7
	})); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	ring := 0
	for _, line := range strings.Split(string(raw), "\n") {
		// id,parent,rank,kind,name,start_ns,end_ns,src,dst,bytes,class,ctx
		f := strings.Split(line, ",")
		if len(f) != 12 || f[3] != "message" || f[10] != "p2p" {
			continue
		}
		src, _ := strconv.Atoi(f[7])
		if dst, _ := strconv.Atoi(f[8]); dst != (src+1)%8 || f[9] != "512" {
			t.Fatalf("p2p message row %q is not a ring send", line)
		}
		ring++
	}
	if want := 8 * 2; ring != want { // np × iters
		t.Fatalf("%d p2p message rows, want %d", ring, want)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(cfg("nope", 4, func(c *config) { c.iters = 1; c.bytes = 1 })); err == nil {
		t.Fatal("unknown workload should fail")
	}
	if err := run(cfg("ring", 4, func(c *config) { c.placement = "diagonal"; c.iters = 1; c.bytes = 1 })); err == nil {
		t.Fatal("unknown placement should fail")
	}
	if err := run(cfg("ring", 4, func(c *config) { c.topoSpec = "bogus"; c.iters = 1; c.bytes = 1 })); err == nil {
		t.Fatal("bad topology spec should fail")
	}
	if err := run(cfg("ring", 500, func(c *config) { c.topoSpec = "2x2x2"; c.iters = 1; c.bytes = 1 })); err == nil {
		t.Fatal("too many ranks should fail")
	}
}

// TestEngineFlagRejected: mpimon runs on the event engine and offers no way
// to say otherwise; -engine is a usage error (exit 2 in main). So is -trace:
// the post-mortem message trace is the -telemetry CSV.
func TestEngineFlagRejected(t *testing.T) {
	var errb bytes.Buffer
	if c, err := parseFlags([]string{"-workload", "ring", "-np", "8"}, &errb); err != nil || c.workload != "ring" || c.np != 8 || c.placement != "rr" {
		t.Fatalf("parseFlags = %+v, %v", c, err)
	}
	for _, args := range [][]string{{"-engine", "event"}, {"-trace", "x"}} {
		errb.Reset()
		_, err := parseFlags(args, &errb)
		if err == nil || !strings.Contains(errb.String(), "flag provided but not defined: "+args[0]) {
			t.Fatalf("%s accepted: err %v, stderr %q", args[0], err, errb.String())
		}
	}
}

// TestRunJSON checks the -json report: a valid document carrying the full
// matrix and the matstat analysis, with internally consistent totals.
func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	c := cfg("ring", 8, func(c *config) { c.jsonOut = true })
	c.stdout = &buf
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if rep.Workload != "ring" || rep.NP != 8 || rep.Iters != 2 {
		t.Fatalf("report header wrong: %+v", rep)
	}
	if len(rep.Matrix) != 8*8 {
		t.Fatalf("matrix has %d entries, want 64", len(rep.Matrix))
	}
	if rep.Analysis == nil {
		t.Fatal("analysis missing from JSON report")
	}
	var total uint64
	for _, v := range rep.Matrix {
		total += v
	}
	if total != rep.Bytes || rep.Analysis.TotalBytes != total {
		t.Fatalf("totals disagree: matrix %d, report %d, analysis %d",
			total, rep.Bytes, rep.Analysis.TotalBytes)
	}
	if rep.Messages == 0 || rep.BaseNs <= 0 {
		t.Fatalf("empty run in report: %+v", rep)
	}
	// Human-readable noise must not precede the document.
	if !strings.HasPrefix(strings.TrimSpace(buf.String()), "{") {
		t.Fatalf("JSON output polluted: %q", buf.String()[:40])
	}
}

// TestRunJSONWithReorder covers the reorder fields of the JSON report.
func TestRunJSONWithReorder(t *testing.T) {
	var buf bytes.Buffer
	c := cfg("groups", 24, func(c *config) { c.jsonOut = true; c.reorder = true; c.iters = 3; c.bytes = 1 << 16 })
	c.stdout = &buf
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ReorderNs <= 0 || len(rep.K) != 24 {
		t.Fatalf("reorder fields missing: reordered_ns=%d len(k)=%d", rep.ReorderNs, len(rep.K))
	}
}

// TestRunJSONWithReorderRepeats: `-reorder -json` is a pure
// function of its flags — two runs report the same reordered time and the
// same permutation.
func TestRunJSONWithReorderRepeats(t *testing.T) {
	runOnce := func() report {
		t.Helper()
		var buf bytes.Buffer
		c := cfg("groups", 48, func(c *config) { c.jsonOut = true; c.reorder = true; c.bytes = 1 << 16 })
		c.stdout = &buf
		if err := run(c); err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := runOnce(), runOnce()
	if a.ReorderNs != b.ReorderNs || !reflect.DeepEqual(a.K, b.K) {
		t.Fatalf("two identical runs differ: reordered_ns %d vs %d, k %v vs %v", a.ReorderNs, b.ReorderNs, a.K, b.K)
	}
}

// TestTelemetryChromeTrace is the acceptance scenario: a groups run with
// reordering and -telemetry must produce a valid Chrome trace with at least
// one collective span that has child message spans.
func TestTelemetryChromeTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	if err := run(cfg("groups", 24, func(c *config) {
		c.reorder = true
		c.telemetry = out
		c.iters = 3
		c.bytes = 1 << 14
	})); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Args struct {
				ID     uint64 `json:"id"`
				Parent uint64 `json:"parent"`
				Kind   string `json:"kind"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("not a valid Chrome trace: %v", err)
	}
	collectives := make(map[uint64]string)
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Args.Kind == "collective" {
			collectives[e.Args.ID] = e.Name
		}
	}
	if len(collectives) == 0 {
		t.Fatal("no collective spans in trace")
	}
	children := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Args.Kind == "message" {
			if _, ok := collectives[e.Args.Parent]; ok {
				children++
			}
		}
	}
	if children == 0 {
		t.Fatal("no message span is a child of a collective span")
	}
}

// TestTelemetryCSV checks the extension-switched CSV exporter path.
func TestTelemetryCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.csv")
	if err := run(cfg("ring", 8, func(c *config) { c.telemetry = out })); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "id,parent,rank,kind,name") {
		t.Fatalf("CSV header wrong: %q", lines[0])
	}
}

// TestPrometheusMatchesMatrix verifies the acceptance criterion that the
// Prometheus counters agree with the monitoring matrix totals: for a
// non-reordered run the session covers all traffic and the library's own
// gathers are suppressed for both views.
func TestPrometheusMatchesMatrix(t *testing.T) {
	var buf bytes.Buffer
	c := cfg("groups", 24, func(c *config) {
		c.jsonOut = true
		c.serve = "ignored" // enable telemetry without binding a port
		c.iters = 3
		c.bytes = 1 << 14
	})
	c.stdout = &buf
	rep, tel, err := execute(&c)
	if err != nil {
		t.Fatal(err)
	}
	var matrixBytes uint64
	for _, v := range rep.Matrix {
		matrixBytes += v
	}
	reg := tel.Registry()
	if got := reg.CounterTotal("mpimon_bytes_total"); got != matrixBytes {
		t.Fatalf("Prometheus bytes %d != matrix bytes %d", got, matrixBytes)
	}
	if got := reg.CounterTotal("mpimon_messages_total"); got != rep.Messages {
		t.Fatalf("Prometheus messages %d != monitored messages %d", got, rep.Messages)
	}

	// And the HTTP endpoint serves those counters in exposition format.
	srv := httptest.NewServer(metricsHandler(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, family := range []string{"mpimon_messages_total", "mpimon_bytes_total", "mpimon_message_size_bytes"} {
		if !strings.Contains(text, "# TYPE "+family) {
			t.Fatalf("exposition lacks %s:\n%s", family, text[:min(400, len(text))])
		}
	}
}

// TestMetricsHandlerMethodAndContentType pins the scrape endpoint
// contract: GET answers with the exposition content type, anything else
// is 405 with an Allow header.
func TestMetricsHandlerMethodAndContentType(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("mpimon_messages_total").Add(7)
	srv := httptest.NewServer(metricsHandler(reg))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}

	for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
		req, err := http.NewRequest(method, srv.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s /metrics: %d, want 405", method, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
			t.Fatalf("%s /metrics Allow = %q, want GET", method, allow)
		}
	}
}
