// Command bench is the repository's host-cost benchmark: six named
// workloads over the simulated MPI runtime and its monitoring stack, four
// gated end-to-end metrics, and a per-layer ledger from a traced run. See
// README.md in this directory for what each workload isolates.
//
//	go run ./bench                      every workload, end-to-end metrics
//	go run ./bench -trace 1             every workload, per-layer metrics
//	go run ./bench -aa                  two sets back to back, checked against the bounds
//	go run ./bench -workload halo-p2p   one run, as the driver invokes it
//
// Every gated number is host time or host memory. Virtual time appears only
// as an exact-repeat check and in ungated per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// spec is BENCHMARK.json.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// The end-to-end metrics, in print order. Their bounds live in
// BENCHMARK.json.
var endToEnd = []metricDef{
	{"units_per_s", "1/s", "higher"},
	{"cpu_us_per_unit", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is one run of one workload: the result line plus what results.json
// keeps beside it.
type outcome struct {
	resultLine
	Workload  string               `json:"workload"`
	Unit      string               `json:"unit"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Traced    bool                 `json:"traced"`
	UnitsPass int64                `json:"units_per_pass"`
	Summary   map[string]quartiles `json:"summary,omitempty"` // over passes (set-ups for setup_s)
	Passes    []pass               `json:"passes"`
	SetupS    []float64            `json:"setup_s_samples"`
	Stages    []stageTime          `json:"stage_self_times,omitempty"`
	Problems  []string             `json:"problems,omitempty"`
}

// maxProcs is the GOMAXPROCS of every measuring process. One P, because the
// gate needs numbers that repeat: on the 2-core host this was sized on, the
// event engine's cross-thread handoffs made reorder-loop's units_per_s spread
// 26 % between ten runs at two Ps and 7 % at one (where it is also 40 %
// faster). What the benchmark gates is therefore the CPU cost of the
// simulator's work, not how well it uses a second core.
const maxProcs = 1

// options are the command's flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	aa        bool
	child     string
	setupOnly bool
	toy       bool
	specPath  string
	outDir    string
}

func (o options) params() *params {
	if o.toy {
		return &toyParams
	}
	return &fullParams
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload and print its result line (default: every workload, each in a child process)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes trace.json")
	fs.BoolVar(&o.aa, "aa", false, "run the full set twice and check both against the bounds of BENCHMARK.json")
	fs.StringVar(&o.child, "child", "", "internal: run one cold pass of this workload and print its report")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: with -workload, set up once, print the set-up time and exit")
	fs.BoolVar(&o.toy, "toy", false, "toy sizes (the smoke test's)")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.StringVar(&o.outDir, "out", "bench/out", "directory for results.json and trace.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(maxProcs)

	p := o.params()
	var err error
	switch {
	case o.child != "":
		err = runChild(o, p, stdout)
	case o.workload != "":
		err = runOne(o, p, stdout)
	case o.aa:
		err = runAA(o, stdout)
	default:
		_, err = runSuite(o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// self builds a command that re-executes this binary with the given mode
// arguments first, then the same seed and sizes. Workload passes, set-ups and
// whole workloads run as children so that each is a cold process.
func self(p *params, seed int64, args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args = append(args, "-seed", strconv.FormatInt(seed, 10))
	if p.Name == "toy" {
		args = append(args, "-toy")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// runChild is `-child scale-setup`: one cold world in this fresh process.
func runChild(o options, p *params, stdout io.Writer) error {
	if o.child != "scale-setup" {
		return fmt.Errorf("-child %q: only scale-setup runs its passes in child processes", o.child)
	}
	log.SetOutput(io.Discard) // the runtime's one-line engine notice, once per pass
	rep, err := scaleChild(p, o.seed, o.trace == 1)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// runOne is the driver's invocation: one workload, one result line.
func runOne(o options, p *params, stdout io.Writer) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.setupOnly {
		// One cold set-up (inputs, world, warm-up pass) in this fresh
		// process; measure collects these for setup_s.
		r := newRunCtx(p, o.seed, 0, nil)
		if err := w.run(r); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		_, err := fmt.Fprintln(stdout, r.setupS)
		return err
	}
	if o.seconds <= 0 {
		s, err := loadSpec(o.specPath)
		if err != nil {
			return err
		}
		o.seconds = float64(s.RunSeconds)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	var out *outcome
	var err error
	if o.trace == 1 {
		out, err = measureTraced(w, p, o.seed, o.seconds, filepath.Join(o.outDir, "trace-"+w.name+".json"))
	} else {
		out, err = measure(w, p, o.seed, o.seconds)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	printOutcome(stdout, out)
	if err := writeJSON(filepath.Join(o.outDir, "run-"+w.name+".json"), out); err != nil {
		return err
	}
	line, err := json.Marshal(out.resultLine)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// measure is an end-to-end run: tracing off, timed passes for the given
// seconds, and the set-up repeated in fresh processes before and after them.
// Fresh processes, because set-up is what a user pays cold (a second set-up
// in a used heap took up to 35 % longer or shorter than the first); before
// and after, because the host's speed wanders over tens of seconds and
// set-ups bunched at the start of a run all see one mood.
func measure(w workload, p *params, seed int64, seconds float64) (*outcome, error) {
	var setups []float64
	extra := p.SetupRepeats - 1
	if err := setupChildren(w, p, seed, extra/2, &setups); err != nil {
		return nil, err
	}
	r := newRunCtx(p, seed, time.Duration(seconds*float64(time.Second)), nil)
	if err := w.run(r); err != nil {
		return nil, err
	}
	setups = append(setups, r.setupS)
	if err := setupChildren(w, p, seed, extra-extra/2, &setups); err != nil {
		return nil, err
	}
	out, err := r.outcome(w, seconds)
	if err != nil {
		return nil, err
	}
	out.SetupS = setups

	rss := r.peakRSSMB
	if rss == 0 {
		if rss, err = peakRSSMB(); err != nil {
			return nil, err
		}
	}
	perS, cpuPer := make([]float64, len(r.passes)), make([]float64, len(r.passes))
	for i, ps := range r.passes {
		perS[i] = float64(r.units) / ps.WallS
		cpuPer[i] = ps.CPUS * 1e6 / float64(r.units)
	}
	out.Summary = map[string]quartiles{
		"units_per_s":     summarize(perS),
		"cpu_us_per_unit": summarize(cpuPer),
		"setup_s":         summarize(out.SetupS),
	}
	values := map[string]float64{
		"units_per_s":     out.Summary["units_per_s"].Median,
		"cpu_us_per_unit": out.Summary["cpu_us_per_unit"].Median,
		"peak_rss_mb":     rss,
		"setup_s":         out.Summary["setup_s"].Median,
	}
	out.setMetrics(endToEnd, values)
	return out, nil
}

// setupChildren runs n `-setup-only` processes of the workload and appends the
// set-up time each reports.
func setupChildren(w workload, p *params, seed int64, n int, setups *[]float64) error {
	for i := 0; i < n; i++ {
		cmd, err := self(p, seed, "-workload", w.name, "-setup-only")
		if err != nil {
			return err
		}
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("set-up process: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return fmt.Errorf("set-up process printed %q: %w", out, err)
		}
		*setups = append(*setups, s)
	}
	return nil
}

// measureTraced is a traced run: a short untraced reference, the same
// workload with the span recorder on and stages barrier-delimited, then the
// layer probes. It prints the per-layer metrics and writes the spans.
func measureTraced(w workload, p *params, seed int64, seconds float64, tracePath string) (*outcome, error) {
	budget := time.Duration(seconds / 4 * float64(time.Second))
	ref := newRunCtx(p, seed, budget, nil)
	if err := w.run(ref); err != nil {
		return nil, fmt.Errorf("untraced reference: %w", err)
	}
	releaseHeap()
	tr := newTracer(w.name)
	r := newRunCtx(p, seed, budget, tr)
	if err := w.run(r); err != nil {
		return nil, err
	}
	out, err := r.outcome(w, seconds)
	if err != nil {
		return nil, err
	}
	out.Traced = true
	out.Problems = append(out.Problems, ref.problems...)
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, err
	}
	releaseHeap()

	values, err := runProbes(p, seed)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for name, v := range r.layer {
		values[name] = v
	}
	wall := func(ps []pass) (xs []float64) {
		for _, q := range ps {
			xs = append(xs, q.WallS)
		}
		return xs
	}
	if len(ref.passes) == 0 {
		return nil, fmt.Errorf("the untraced reference finished no timed pass")
	}
	values["bench.trace_overhead_frac"] = median(wall(r.passes))/median(wall(ref.passes)) - 1
	var cover float64
	out.Stages, cover = tr.selfTimes()
	values["bench.stage_cover_frac"] = cover
	virt := make([]float64, len(r.passes))
	lo, hi := float64(r.passes[0].VirtNs), float64(r.passes[0].VirtNs)
	for i, ps := range r.passes {
		virt[i] = float64(ps.VirtNs)
		lo, hi = min(lo, virt[i]), max(hi, virt[i])
	}
	values["netsim.virt_us_per_unit"] = median(virt) / 1e3 / float64(r.units)
	values["netsim.virt_spread_frac"] = 0
	if m := median(virt); m > 0 {
		values["netsim.virt_spread_frac"] = (hi - lo) / m
	}
	for _, m := range layerMetrics {
		if _, ok := values[m.name]; !ok {
			return nil, fmt.Errorf("no probe produced %s", m.name)
		}
	}
	out.setMetrics(layerMetrics, values)
	return out, nil
}

// outcome turns a finished run into its verdict: attempted and failed
// units, and the exact-repeat check of virtual time on event-engine
// workloads.
func (r *runCtx) outcome(w workload, seconds float64) (*outcome, error) {
	if len(r.passes) == 0 {
		return nil, fmt.Errorf("no timed pass finished")
	}
	if r.units <= 0 {
		return nil, fmt.Errorf("the workload counted no units")
	}
	if r.exactVirt {
		for _, ps := range r.passes[1:] {
			if ps.VirtNs != r.passes[0].VirtNs {
				r.failAll("virtual time differs between passes on the event engine: %d ns then %d ns", r.passes[0].VirtNs, ps.VirtNs)
				break
			}
		}
	}
	out := &outcome{Workload: w.name, Unit: w.unit, Seed: r.seed, Seconds: seconds, UnitsPass: r.units,
		Passes: r.passes, Problems: r.problems}
	out.Attempted = r.units * int64(len(r.passes))
	for _, ps := range r.passes {
		if ps.Failed {
			out.Failed += r.units
		}
	}
	out.Correct = out.Failed == 0 && len(r.problems) == 0
	return out, nil
}

func (o *outcome) setMetrics(defs []metricDef, values map[string]float64) {
	o.Metrics = map[string]metricValue{}
	for _, m := range defs {
		if v, ok := values[m.name]; ok {
			o.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
}

func printOutcome(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "%s  seed %d  %d passes of %d %ss  fail_frac %g\n", o.Workload, o.Seed, len(o.Passes),
		o.UnitsPass, o.Unit, float64(o.Failed)/float64(o.Attempted))
	defs := endToEnd
	if o.Traced {
		defs = layerMetrics
	}
	for _, m := range defs {
		v, ok := o.Metrics[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-6s", m.name, v.Value, v.Unit)
		if q, ok := o.Summary[m.name]; ok {
			fmt.Fprintf(w, " q1 %.6g q3 %.6g n %d", q.Q1, q.Q3, q.N)
		}
		fmt.Fprintln(w)
	}
	for _, s := range o.Stages {
		fmt.Fprintf(w, "  stage %-32s self %10.4f s in %d spans\n", s.Name, s.SelfS, s.Count)
	}
	for _, p := range o.Problems {
		fmt.Fprintf(w, "  PROBLEM %s\n", p)
	}
}

// provenance is what results.json records about where its numbers came from.
type provenance struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Params     *params `json:"params"`
}

// results is results.json: one full set of runs.
type results struct {
	Claim      *string    `json:"claim"` // null: this benchmark run claims no gain
	Provenance provenance `json:"provenance"`
	Traced     bool       `json:"traced"`
	Runs       []*outcome `json:"runs"`
}

// commit names the source the numbers were measured on: what git describes
// the working tree as, or "unknown" outside a git checkout (as under the
// driver).
func commit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSuite runs every workload of BENCHMARK.json, one child process after
// another so peak_rss_mb is attributable, and writes results.json.
func runSuite(o options, stdout io.Writer) (*results, error) {
	s, err := loadSpec(o.specPath)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		o.seconds = float64(s.RunSeconds)
	}
	p := o.params()
	res := &results{Traced: o.trace == 1, Provenance: provenance{Seed: o.seed, Seconds: o.seconds, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(), Params: p}}
	for _, sw := range s.Workloads {
		cmd, err := self(p, o.seed, "-workload", sw.Name, "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(o.trace), "-spec", o.specPath, "-out", o.outDir)
		if err != nil {
			return nil, err
		}
		cmd.Stdout = stdout
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", sw.Name, err)
		}
		b, err := os.ReadFile(filepath.Join(o.outDir, "run-"+sw.Name+".json"))
		if err != nil {
			return nil, err
		}
		var out outcome
		if err := json.Unmarshal(b, &out); err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, &out)
	}
	if err := writeJSON(filepath.Join(o.outDir, "results.json"), res); err != nil {
		return nil, err
	}
	if res.Traced {
		if err := mergeTraces(o.outDir, s.Workloads); err != nil {
			return nil, err
		}
	}
	for _, out := range res.Runs {
		if !out.Correct {
			return res, fmt.Errorf("%s: incorrect output: %s", out.Workload, strings.Join(out.Problems, "; "))
		}
	}
	return res, nil
}

// mergeTraces joins the children's trace files into trace.json, one
// Chrome-trace thread per workload.
func mergeTraces(dir string, workloads []specWorkload) error {
	var all []map[string]any
	for tid, w := range workloads {
		b, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
		if err != nil {
			return err
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			return err
		}
		for _, ev := range doc.TraceEvents {
			ev["tid"] = tid + 1
			all = append(all, ev)
		}
	}
	return writeJSON(filepath.Join(dir, "trace.json"), map[string]any{"traceEvents": all, "displayTimeUnit": "ms"})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// aaRow compares one (metric, workload) pair of two sets of the same code.
type aaRow struct {
	Metric   string  `json:"metric"`
	Workload string  `json:"workload"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Worse    float64 `json:"worse_frac"` // how much worse the second is, as a share of the first
	Bound    float64 `json:"bound"`
	Breach   bool    `json:"breach"`
}

// aaReport is what `-aa` writes (and what baseline.json holds).
type aaReport struct {
	Claim *string    `json:"claim"`
	Rows  []aaRow    `json:"rows"`
	Sets  []*results `json:"sets"`
}

// runAA runs the full set twice back to back: the same code must agree with
// itself within the bounds a later change is held to.
func runAA(o options, stdout io.Writer) error {
	s, err := loadSpec(o.specPath)
	if err != nil {
		return err
	}
	o.trace = 0
	rep := &aaReport{}
	for i := 0; i < 2; i++ {
		fmt.Fprintf(stdout, "== set %d\n", i+1)
		res, err := runSuite(o, stdout)
		if err != nil {
			return err
		}
		rep.Sets = append(rep.Sets, res)
	}
	rep.Rows = compareSets(s, rep.Sets[0], rep.Sets[1])
	breaches := 0
	fmt.Fprintf(stdout, "== A/A\n%-18s %-14s %14s %14s %9s %7s\n", "metric", "workload", "first", "second", "worse", "bound")
	for _, row := range rep.Rows {
		mark := ""
		if row.Breach {
			mark = "  BREACH"
			breaches++
		}
		fmt.Fprintf(stdout, "%-18s %-14s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", row.Metric, row.Workload,
			row.First, row.Second, 100*row.Worse, 100*row.Bound, mark)
	}
	if err := writeJSON(filepath.Join(o.outDir, "aa.json"), rep); err != nil {
		return err
	}
	if breaches > 0 {
		return fmt.Errorf("%d of %d pairs differ by more than their bound", breaches, len(rep.Rows))
	}
	return nil
}

// compareSets lists, per end-to-end metric and workload, both values and
// how much worse the second is than the first.
func compareSets(s *spec, a, b *results) []aaRow {
	var rows []aaRow
	for _, m := range s.EndToEnd {
		if m.Bound == nil {
			continue
		}
		for i, ra := range a.Runs {
			x, y := ra.Metrics[m.Name].Value, b.Runs[i].Metrics[m.Name].Value
			worse := (y - x) / x
			if m.Better == "higher" {
				worse = (x - y) / x
			}
			rows = append(rows, aaRow{Metric: m.Name, Workload: ra.Workload, First: x, Second: y,
				Worse: worse, Bound: *m.Bound, Breach: worse > *m.Bound})
		}
	}
	return rows
}
