package golden

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDiff(t *testing.T) {
	world := "case a\nclock 0 10\ncase b\nclock 0 10\nclock 1 20\nnic 0 5 1\n"
	recs := strings.Split("r1 r2 r3 r4 r5 r6 r7 r8 r9 r10", " ")
	moved := append([]string(nil), recs...)
	moved[7] = "changed"
	digest := "clock 0 1\nclock 1 2\np2p.count 0 1:1\nnic 0 8 1\nfailed\n"
	for _, tc := range []struct {
		name, got, want string
		report          []string
	}{
		{"mid-file", strings.Replace(world, "clock 1 20", "clock 1 21", 1), world,
			[]string{`line 5 (case b, key "clock 1"):`, "got:  clock 1 21\n", "want: clock 1 20"}},
		{"extra line", "events 3\nswitches 1\n", "events 3\n", []string{"line 2:", "got:  switches 1\n", "want: \n"}},
		{"missing line", "events 3\n", "events 3\nswitches 1\n", []string{"line 2:", "got:  \n", "want: switches 1\n"}},
		{"no last newline", "events 3", "events 3\n", []string{"line 2:", "got:  <end>\n", "want: \n"}},
		{"third block", Blocks(moved, 3), Blocks(recs, 3), []string{`line 3 (key "block 3"):`, " r7\n"}},
		{"digest", Digest(strings.Replace(digest, "1:1", "1:2", 1)), Digest(digest), []string{`line 2 (key "p2p.count"):`}},
	} {
		d := Diff(tc.got, tc.want) + "\n"
		for _, s := range tc.report {
			if !strings.Contains(d, s) {
				t.Errorf("%s: report lacks %q:\n%s", tc.name, s, d)
			}
		}
	}
	if d := Diff(world, world); d != "" {
		t.Errorf("equal texts reported: %s", d)
	}
	if n := strings.Count(Blocks(recs, 3), "\n"); n != 4 {
		t.Errorf("10 records in blocks of 3 make %d lines, want 4", n)
	}
	if n := strings.Count(Digest(digest), "\n"); n != 4 {
		t.Errorf("four sections digest to %d lines", n)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	pin := filepath.Join(dir, "pin.txt")
	if err := os.WriteFile(pin, []byte("case x\nevents 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if msg := compare(pin, "case x\nevents 1\n"); msg != "" {
		t.Fatalf("equal text reported: %s", msg)
	}
	for _, tc := range []struct{ path, report string }{
		{pin, `line 2 (case x, key "events")`},
		{filepath.Join(dir, "absent.txt"), "no such file"},
	} {
		const got = "case x\nevents 2\n"
		msg := compare(tc.path, got)
		_, rest, _ := strings.Cut(msg, "the text this run got is in ")
		saved, _, _ := strings.Cut(rest, ";")
		b, err := os.ReadFile(saved)
		if err != nil || string(b) != got {
			t.Errorf("report names no file holding the text got (%v):\n%s", err, msg)
		}
		os.Remove(saved)
		if !strings.Contains(msg, tc.report) || !strings.Contains(msg, "copy it over "+tc.path) {
			t.Errorf("report lacks %q or the golden path:\n%s", tc.report, msg)
		}
	}
}
