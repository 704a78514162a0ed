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
	"strings"
	"testing"

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

// TestResultsRegenerate: every cheap exact file under results/ is the
// byte-for-byte output of the command EXPERIMENTS.md prints for it. A
// difference is reported at its first line.
func TestResultsRegenerate(t *testing.T) {
	for _, tc := range []struct {
		args []string
		file string
	}{
		{[]string{"hwcounters"}, "fig2_series.tsv"},
		{[]string{"hwcounters", "-cumulative"}, "fig3_cumulative.tsv"},
		{[]string{"collopt", "-op", "reduce"}, "fig5a_reduce.tsv"},
		{[]string{"collopt", "-op", "bcast"}, "fig5b_bcast.tsv"},
		{[]string{"online"}, "online_reorder.tsv"},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := runTable(experiments, tc.args, &out, &errb); code != 0 {
			t.Fatalf("exp %v: exit %d: %s", tc.args, code, errb.String())
		}
		if bytes.Equal(out.Bytes(), want) {
			continue
		}
		got, rec := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(got) && i < len(rec) && got[i] == rec[i] {
			i++
		}
		line := func(l []string) string {
			if i < len(l) {
				return l[i]
			}
			return "<end>"
		}
		t.Errorf("exp %v no longer regenerates results/%s; first difference at line %d:\n  run:  %s\n  file: %s",
			tc.args, tc.file, i+1, line(got), line(rec))
	}
}
