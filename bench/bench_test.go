package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mpimon/internal/sparsemat"
)

// The smoke tier: every workload and the traced run at toy sizes, no timing
// assertions. It keeps the harness compiling and its verifiers honest; the
// numbers come from `go run ./bench`.

// TestMain lets the test binary stand in for the bench binary when a workload
// or the suite re-executes itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "-child" || os.Args[1] == "-workload") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

const toyBudget = 30 * time.Millisecond

func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range allWorkloads {
		out, err := measure(w, &toyParams, 3, toyBudget.Seconds())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", w.name, out.Correct, out.Attempted, out.Failed, out.Problems)
		}
		if len(out.Metrics) != len(endToEnd) {
			t.Errorf("%s: printed %d end-to-end metrics, want %d", w.name, len(out.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := out.Metrics[m.name]; !ok || !(v.Value > 0) || v.Unit != m.unit {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w.name, m.name, v, ok, m.unit)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	for _, w := range allWorkloads {
		path := filepath.Join(dir, w.name+".json")
		out, err := measureTraced(w, &toyParams, 3, 4*toyBudget.Seconds(), path)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !out.Correct {
			t.Errorf("%s: traced run incorrect: %v", w.name, out.Problems)
		}
		if len(out.Metrics) != len(layerMetrics) {
			t.Errorf("%s: printed %d per-layer metrics, want %d", w.name, len(out.Metrics), len(layerMetrics))
		}
		if cover := out.Metrics["bench.stage_cover_frac"].Value; cover < 0.95 {
			t.Errorf("%s: stage spans cover %.3f of the traced passes, want at least 0.95", w.name, cover)
		}
		var doc struct {
			TraceEvents []struct {
				Name string
				Args map[string]any
			} `json:"traceEvents"`
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace file: %d events, err %v", w.name, len(doc.TraceEvents), err)
		}
	}
}

// TestExactCountersRepeat pins the per-layer metrics that are counts or
// virtual-time ratios: two runs of the probes must print identical values.
func TestExactCountersRepeat(t *testing.T) {
	a, err := runProbes(&toyParams, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runProbes(&toyParams, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"engine.events_per_rank", "monitoring.rootgather_wire_bytes", "sparsemat.bytes_per_row",
		"treematch.cost_frac_vs_rr_65536", "treematch.refine_degraded", "reorder.placement_cost_ratio", "reorder.virt_gain_x",
		"monsvc.rejected_rows"} {
		if _, ok := a[name]; !ok || a[name] != b[name] {
			t.Errorf("%s: %v then %v (present %v)", name, a[name], b[name], ok)
		}
	}
}

// TestSpecMatchesCode holds BENCHMARK.json and the code to the same names,
// and both to the contract's limits.
func TestSpecMatchesCode(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", s.Paths)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", s.RunSeconds)
	}
	if len(s.Workloads) > 8 || len(s.EndToEnd) > 16 || len(s.PerLayer) > 128 {
		t.Errorf("%d workloads / %d end-to-end / %d per-layer exceed 8 / 16 / 128", len(s.Workloads), len(s.EndToEnd), len(s.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(s.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(s.Workloads), len(allWorkloads))
	}
	for i, w := range s.Workloads {
		name(w.Name)
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code", i, w.Name, allWorkloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(kind string, spec []specMetric, code []metricDef, bounded bool) {
		if len(spec) != len(code) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in code", len(spec), kind, len(code))
		}
		for i, m := range spec {
			name(m.Name)
			if c := code[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in code", kind, i, m, c)
			}
			if bounded != (m.Bound != nil) || bounded && !(*m.Bound > 0 && *m.Bound <= 0.25) {
				t.Errorf("%s metric %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	same("end-to-end", s.EndToEnd, endToEnd, true)
	same("per-layer", s.PerLayer, layerMetrics, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestDriverLine runs the command as the driver does and checks the shape of
// its last line.
func TestDriverLine(t *testing.T) {
	var stdout bytes.Buffer
	args := []string{"--workload", "treematch-map", "--seed", "9", "--seconds", "0.03", "--trace", "0",
		"-toy", "-spec", "../BENCHMARK.json", "-out", t.TempDir()}
	if code := run(args, &stdout, io.Discard); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[key]; !ok {
			t.Errorf("last line has no %q", key)
		}
	}
	if len(got) != 4 {
		t.Errorf("last line has %d keys, want exactly 4", len(got))
	}
	if code := run([]string{"--workload", "no-such"}, io.Discard, io.Discard); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

// TestSuiteWritesResults runs the whole set in child processes at toy sizes.
func TestSuiteWritesResults(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-toy", "-seconds", "0.03", "-spec", "../BENCHMARK.json", "-out", dir}
	if code := run(args, io.Discard, os.Stderr); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	b, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res results
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(allWorkloads) || res.Claim != nil || res.Provenance.GoVersion == "" || res.Provenance.Params == nil {
		t.Errorf("results.json: %d runs, claim %v, provenance %+v", len(res.Runs), res.Claim, res.Provenance)
	}
	for _, r := range res.Runs {
		if len(r.Passes) == 0 || len(r.SetupS) == 0 {
			t.Errorf("%s: no raw samples recorded", r.Workload)
		}
	}
}

func TestCompareSetsFlagsABreach(t *testing.T) {
	bound := 0.10
	s := &spec{EndToEnd: []specMetric{
		{Name: "units_per_s", Better: "higher", Bound: &bound},
		{Name: "setup_s", Better: "lower", Bound: &bound},
	}}
	set := func(ups, setup float64) *results {
		return &results{Runs: []*outcome{{Workload: "w", resultLine: resultLine{Metrics: map[string]metricValue{
			"units_per_s": {Value: ups}, "setup_s": {Value: setup}}}}}}
	}
	rows := compareSets(s, set(100, 1), set(85, 1.05))
	if len(rows) != 2 || !rows[0].Breach || rows[1].Breach {
		t.Errorf("rows = %+v, want a breach on units_per_s only", rows)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q := summarize([]float64{46, 1, 22, 2, 4, 7, 11, 16, 29, 37})
	if q.Q1 != 3.5 || q.Median != 13.5 || q.Q3 != 31 || q.N != 10 {
		t.Errorf("got %+v", q)
	}
}

// stencil builds the matrix verifyStencil expects.
func stencil(gx int, iters, msg uint64) *sparsemat.Matrix {
	sm := sparsemat.New(gx * gx)
	for i := range sm.Rows {
		sm.Rows[i] = stencilRow(i, gx)
		for k := range sm.Rows[i].Cnt {
			sm.Rows[i].Cnt[k], sm.Rows[i].Byt[k] = iters, iters*msg
		}
	}
	return sm
}

func TestVerifyStencilRejectsCorruptMatrices(t *testing.T) {
	if err := verifyStencil(stencil(4, 3, 100), 4, 3, 100); err != nil {
		t.Fatalf("the analytic matrix is rejected: %v", err)
	}
	corrupt := map[string]func(*sparsemat.Matrix){
		"one count off":   func(m *sparsemat.Matrix) { m.Rows[5].Cnt[1]++ },
		"one byte off":    func(m *sparsemat.Matrix) { m.Rows[9].Byt[0]-- },
		"entry dropped":   func(m *sparsemat.Matrix) { r := &m.Rows[0]; r.Dst, r.Cnt, r.Byt = r.Dst[1:], r.Cnt[1:], r.Byt[1:] },
		"entry moved":     func(m *sparsemat.Matrix) { m.Rows[0].Dst[1] = 15 },
		"row not sorted":  func(m *sparsemat.Matrix) { d := m.Rows[5].Dst; d[0], d[1] = d[1], d[0] },
		"wrong order":     func(m *sparsemat.Matrix) { m.N = 15 },
		"non-neighbour":   func(m *sparsemat.Matrix) { m.Rows[0].Dst[0] = 2 },
		"extra iteration": func(m *sparsemat.Matrix) { *m = *stencil(4, 4, 100) },
	}
	for what, damage := range corrupt {
		m := stencil(4, 3, 100)
		damage(m)
		if verifyStencil(m, 4, 3, 100) == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	if verifyStencil(nil, 4, 3, 100) == nil {
		t.Error("a missing matrix is accepted")
	}
}

func TestVerifyExportRejectsLostRowsAndWrongSums(t *testing.T) {
	if err := verifyExport(stencil(4, 6, 100), 32, 4, 2, 3, 100); err != nil {
		t.Fatalf("the expected daemon state is rejected: %v", err)
	}
	if verifyExport(stencil(4, 6, 100), 31, 4, 2, 3, 100) == nil {
		t.Error("a lost row is accepted")
	}
	if verifyExport(stencil(4, 5, 100), 32, 4, 2, 3, 100) == nil {
		t.Error("a cumulative matrix short of one iteration is accepted")
	}
}

func TestVerifyPermutationAndPlacement(t *testing.T) {
	if err := verifyPermutation([]int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	for _, k := range [][]int{nil, {0, 0, 1}, {0, 1, 3}, {-1, 0, 1}} {
		if verifyPermutation(k) == nil {
			t.Errorf("%v accepted as a permutation", k)
		}
	}
	first := []int{2, 0, 1}
	if err := verifyPlacement([]int{2, 0, 1}, first, 5, 5); err != nil {
		t.Fatal(err)
	}
	if verifyPlacement([]int{0, 2, 1}, first, 5, 5) == nil {
		t.Error("a placement that differs from the first pass is accepted")
	}
	if verifyPlacement([]int{2, 0, 1}, first, 6, 5) == nil {
		t.Error("a placement costlier than round-robin is accepted")
	}
	if verifyPlacement([]int{2, 2, 1}, first, 5, 5) == nil {
		t.Error("a placement that is no permutation is accepted")
	}
	if _, err := placementCostRatio(stencil(2, 1, 1), nil, []int{0, 1, 2, 3}, []int{0, 1, 1, 3}); err == nil {
		t.Error("placementCostRatio accepted a corrupt permutation")
	}
}

func TestCollCheckRejectsCorruptResults(t *testing.T) {
	cp := toyParams.Coll
	np := cp.Nodes * 24
	in := newCollInputs(1, cp, np)
	fill := func() *collBuffers {
		b := in.buffers(0)
		copy(b.bcast, in.bcast)
		copy(b.arRecv, in.arWant)
		copy(b.a2aRecv, b.a2aWant)
		copy(b.redRecv, in.redWant)
		return b
	}
	if !in.check(fill(), true) {
		t.Fatal("the expected results are rejected")
	}
	corrupt := map[string]func(*collBuffers){
		"bcast":     func(b *collBuffers) { b.bcast[len(b.bcast)-1] ^= 1 },
		"allreduce": func(b *collBuffers) { b.arRecv[0] ^= 1 },
		"alltoall":  func(b *collBuffers) { b.a2aRecv[cp.AlltoallBytes] ^= 1 },
		"reduce":    func(b *collBuffers) { b.redRecv[8] ^= 1 },
	}
	for what, damage := range corrupt {
		b := fill()
		damage(b)
		if in.check(b, true) {
			t.Errorf("a corrupt %s result is accepted", what)
		}
	}
}
