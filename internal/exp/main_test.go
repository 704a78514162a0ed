package exp

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mpimon/internal/golden"
	"mpimon/internal/mpi"
)

func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if e.name == "" || e.doc == "" || e.setup == nil {
			t.Errorf("incomplete row %+v", e)
		}
		if seen[e.name] {
			t.Errorf("experiment %q listed twice", e.name)
		}
		seen[e.name] = true

		// -h must parse for every row: a flag registered twice (by the
		// row and by the shared set) panics here.
		var out, errb bytes.Buffer
		if code := Main([]string{e.name, "-h"}, &out, &errb); code != 0 {
			t.Errorf("%s -h: exit %d", e.name, code)
		}
		for _, shared := range []string{"-telemetry", "-cpuprofile", "-memprofile"} {
			if !strings.Contains(errb.String(), shared+" ") {
				t.Errorf("%s -h does not list %s", e.name, shared)
			}
		}
		if out.Len() != 0 {
			t.Errorf("%s -h wrote to stdout: %q", e.name, out.String())
		}

		// Every experiment runs on the event engine; none offers a choice.
		errb.Reset()
		if code := Main([]string{e.name, "-engine", "event"}, &out, &errb); code != 2 ||
			!strings.Contains(errb.String(), "flag provided but not defined: -engine") {
			t.Errorf("%s -engine event: exit %d, stderr %q; want the usage error", e.name, code, errb.String())
		}
	}
}

func TestMainUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"-h"}, 0},
		{[]string{"--help"}, 0},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"no-such-experiment"}, 2},
		{[]string{"hwcounters", "-no-such-flag"}, 2},
		{[]string{"hwcounters", "stray"}, 2},
		{[]string{"collopt", "-np", "48,x"}, 2},
	} {
		var out, errb bytes.Buffer
		if code := Main(tc.args, &out, &errb); code != tc.code {
			t.Errorf("exp %v: exit %d, want %d", tc.args, code, tc.code)
		}
		if out.Len() != 0 {
			t.Errorf("exp %v wrote to stdout: %q", tc.args, out.String())
		}
		if len(tc.args) < 2 {
			for _, e := range experiments {
				if !strings.Contains(errb.String(), "  "+e.name+" ") {
					t.Errorf("exp %v: usage does not list %s", tc.args, e.name)
				}
			}
		}
	}
}

// TestBadRepsFails: a -reps value an experiment cannot take fails the run
// with exit 1 and an error that names reps, instead of panicking a rank or
// the whole process. collopt and overhead need one repetition for a median.
func TestBadRepsFails(t *testing.T) {
	for _, args := range [][]string{
		{"collopt", "-np", "4", "-sizes", "1", "-reps", "0"},
		{"collopt", "-np", "4", "-sizes", "1", "-reps", "-1"},
		{"overhead", "-np", "4", "-sizes", "1", "-reps", "0"},
	} {
		var out, errb bytes.Buffer
		code := runTable(experiments, args, &out, &errb)
		if code != 1 || !strings.Contains(errb.String(), "reps") || strings.Contains(errb.String(), "panic") {
			t.Errorf("exp %v: exit %d, stderr %q; want 1 and an error naming reps", args, code, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("exp %v wrote to stdout: %q", args, out.String())
		}
	}
}

// TestBadGridFails: a world size below one rank, a CG world size that is
// not a power of two, a negative message, block or buffer size, a group,
// phase, window, clique, iteration or repetition count below one, a negative
// CG iteration count, mapping timeout or duration, a sampling period or a
// death time at or before zero and a matrix order that is not a positive
// multiple of 32 fail the run with exit 1 and an error that names the bad
// value, before any world is built, instead of panicking the process in a
// machine model or every rank in a makeslice, failing every rank of a world,
// or quietly measuring some other count. A death after the iteration budget
// fails the run with one error, not one per rank.
func TestBadGridFails(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"collopt", "-np", "0", "-sizes", "1"}, "np >= 1"},
		{[]string{"overhead", "-np", "0", "-sizes", "1"}, "np >= 1"},
		{[]string{"guidelines", "-np", "0", "-blocks", "64", "-sweep=false"}, "np >= 1"},
		{[]string{"reorder-heatmap", "-np", "0", "-iters", "1", "-bufs", "1"}, "np >= 1"},
		{[]string{"online", "-np", "0"}, "np >= 1"},
		{[]string{"engine-scale", "-np", "0"}, "np >= 1"},
		{[]string{"nascg", "-np", "0"}, "np >= 1"},
		{[]string{"gather-scale", "-np", "0"}, "np >= 1"},
		{[]string{"overhead", "-np", "4", "-sizes", "-1", "-reps", "2"}, "overhead sizes: negative message size -1"},
		{[]string{"guidelines", "-np", "4", "-blocks", "-8", "-sweep=false"}, "blocks: negative message size -8"},
		{[]string{"collopt", "-np", "4", "-sizes", "1,-1"}, "collopt sizes: negative message size -1"},
		{[]string{"reorder-heatmap", "-np", "4", "-iters", "1", "-bufs", "-1"}, "reorder-heatmap bufs: negative message size -1"},
		{[]string{"guidelines", "-np", "4", "-blocks", "64", "-sweep=false", "-reps", "-1"}, "reps >= 1"},
		{[]string{"guidelines", "-np", "4", "-blocks", "64", "-sweep=false", "-reps", "0"}, "reps >= 1"},
		{[]string{"online", "-groups", "0"}, "groups >= 1"},
		{[]string{"online", "-groups", "-1"}, "groups >= 1"},
		{[]string{"online", "-phases", "0"}, "phases >= 1"},
		{[]string{"online", "-windows", "0"}, "windows >= 1"},
		{[]string{"online", "-windows", "-1"}, "windows >= 1"},
		{[]string{"online", "-chunk", "-1"}, "online chunk: negative message size -1"},
		{[]string{"faults", "-clique", "0"}, "clique >= 1"},
		{[]string{"faults", "-size", "-1"}, "faults size: negative message size -1"},
		{[]string{"faults", "-iters", "0"}, "iters >= 1"},
		{[]string{"faults", "-map-timeout", "-1ns"}, "map-timeout >= 0"},
		{[]string{"faults", "-death-at", "0"}, "death-at > 0"},
		{[]string{"faults", "-death-at", "-1ms"}, "death-at > 0"},
		{[]string{"faults", "-death-at", "1h"}, "fault plan never fired in 20 iterations"},
		{[]string{"hwcounters", "-period", "0"}, "period > 0"},
		{[]string{"hwcounters", "-period", "-5ms"}, "period > 0"},
		{[]string{"hwcounters", "-duration", "-1s"}, "duration >= 0"},
		{[]string{"treematch-scale", "-orders", "-5"}, "positive multiples of 32"},
		{[]string{"treematch-scale", "-orders", "0"}, "positive multiples of 32"},
		{[]string{"treematch-scale", "-orders", "1"}, "positive multiples of 32"},
		{[]string{"reorder-heatmap", "-iters", "0"}, "iters >= 1"},
		{[]string{"reorder-heatmap", "-iters", "-1"}, "iters >= 1"},
		{[]string{"nascg", "-np", "12"}, "number of processes 12 is not a power of two"},
		{[]string{"nascg", "-niter", "-1"}, "niter >= 0"},
	} {
		var out, errb bytes.Buffer
		code := runTable(experiments, tc.args, &out, &errb)
		if code != 1 || strings.Count(errb.String(), tc.want) != 1 || strings.Contains(errb.String(), "panic") {
			t.Errorf("exp %v: exit %d, stderr %q; want 1 and one error containing %q", tc.args, code, errb.String(), tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("exp %v wrote to stdout: %q", tc.args, out.String())
		}
	}
}

// TestFailingExperimentKeepsProfiles: an experiment that returns an error
// exits 1 and still leaves a complete CPU profile, heap profile and Chrome
// trace.
func TestFailingExperimentKeepsProfiles(t *testing.T) {
	boom := errors.New("boom")
	table := []experiment{{
		name: "fails",
		doc:  "runs one barrier, then fails",
		setup: func(fs *flag.FlagSet) func(io.Writer) error {
			return func(w io.Writer) error {
				world, err := PlaFRIMWorld(4, nil)
				if err != nil {
					return err
				}
				if err := world.Run(func(c *mpi.Comm) error { return c.Barrier() }); err != nil {
					return err
				}
				Fprintf(w, "partial\n")
				return boom
			}
		},
	}}
	dir := t.TempDir()
	cpu, mem, trace := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "trace.json")
	var out, errb bytes.Buffer
	code := runTable(table, []string{"fails", "-cpuprofile", cpu, "-memprofile", mem, "-telemetry", trace}, &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "exp fails: boom") {
		t.Fatalf("exit %d, stderr %q; want 1 and the experiment's error", code, errb.String())
	}
	if out.String() != "partial\n" {
		t.Fatalf("stdout %q", out.String())
	}
	if worldOptions != nil {
		t.Fatal("shared world options outlived the run")
	}
	for _, path := range []string{cpu, mem} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		// Reading to EOF checks the gzip trailer, which only a stopped
		// profile has.
		raw, err := io.ReadAll(zr)
		f.Close()
		if err != nil || len(raw) == 0 {
			t.Fatalf("%s: %d profile bytes, %v", path, len(raw), err)
		}
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace: %d events, %v", len(doc.TraceEvents), err)
	}
}

// regenerated pairs each cheap exact file under results/ with the command
// EXPERIMENTS.md prints for it. The files too slow for tier-1 are the
// Makefile's REGEN list, which `make regen` checks.
var regenerated = []struct {
	args []string
	file string
}{
	{[]string{"hwcounters"}, "fig2_series.tsv"},
	{[]string{"hwcounters", "-cumulative"}, "fig3_cumulative.tsv"},
	{[]string{"collopt", "-op", "reduce"}, "fig5a_reduce.tsv"},
	{[]string{"collopt", "-op", "bcast"}, "fig5b_bcast.tsv"},
	{[]string{"online"}, "online_reorder.tsv"},
	{[]string{"faults"}, "faults.tsv"},
}

// TestResultsRegenerate: every file of regenerated is the byte-for-byte
// output of its command. A difference is reported at its first line.
func TestResultsRegenerate(t *testing.T) {
	for _, tc := range regenerated {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := runTable(experiments, tc.args, &out, &errb); code != 0 {
			t.Fatalf("exp %v: exit %d: %s", tc.args, code, errb.String())
		}
		if d := golden.Diff(out.String(), string(want)); d != "" {
			t.Errorf("exp %v no longer regenerates results/%s; %s", tc.args, tc.file, d)
		}
	}
}

// TestEveryResultIsChecked: every file under results/ is exact, so each is
// either regenerated by TestResultsRegenerate or named in the Makefile's
// REGEN list ('command|file' pairs, several files joined by "+"). A
// host-measured table belongs in EXPERIMENTS.md as a dated record, not here.
func TestEveryResultIsChecked(t *testing.T) {
	checked := map[string]bool{}
	for _, tc := range regenerated {
		checked[tc.file] = true
	}
	mk, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	list := regexp.MustCompile(`(?m)^REGEN = \\\n((?:\t.*\n)+)`).FindSubmatch(mk)
	if list == nil {
		t.Fatal("no REGEN list in the Makefile")
	}
	for _, m := range regexp.MustCompile(`'[^'|]+\|([^']+)'`).FindAllSubmatch(list[1], -1) {
		for _, f := range strings.Split(string(m[1]), "+") {
			checked[f] = true
		}
	}
	entries, err := os.ReadDir(filepath.Join("..", "..", "results"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !checked[e.Name()] {
			t.Errorf("results/%s is checked by neither TestResultsRegenerate nor the Makefile's REGEN list", e.Name())
		}
	}
}
