// Package golden holds the exactness pins' expected values as text under
// testdata/golden/ and reports a mismatch at its first differing line.
//
// A pin writes canonical, line-oriented text: each line starts with its key
// (a section, then the rank, row or block it is about), and a line
// "case <name>" opens each case of a pin that runs several. Check compares
// the text with testdata/golden/<test name>.txt, so each subtest has its
// own file and runs alone. On a mismatch it saves the text it got to a
// temporary file and prints its path: recording a pin again on purpose is
// copying that file over the golden one. Diff is the same comparison
// between two texts, such as two engines' world states.
//
// The package imports only the standard library, so the tests of every
// package, internal/mpi's included, can use it.
package golden

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Diff returns "" when got equals want and otherwise describes their first
// differing line: its number, the case it is in, its key (the leading
// fields the two lines share) and both lines.
func Diff(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	at := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "<end>"
	}
	var where []string
	for j := i - 1; j >= 0; j-- {
		if strings.HasPrefix(g[j], "case ") {
			where = append(where, g[j])
			break
		}
	}
	fg, fw := strings.Fields(at(g)), strings.Fields(at(w))
	n := 0
	for n < len(fg) && n < len(fw) && fg[n] == fw[n] {
		n++
	}
	if n > 0 {
		where = append(where, fmt.Sprintf("key %q", strings.Join(fg[:n], " ")))
	}
	loc := ""
	if len(where) > 0 {
		loc = " (" + strings.Join(where, ", ") + ")"
	}
	return fmt.Sprintf("first difference at line %d%s:\n  got:  %s\n  want: %s", i+1, loc, at(g), at(w))
}

// Check fails t unless got equals testdata/golden/<t.Name()>.txt.
func Check(t testing.TB, got string) {
	t.Helper()
	if msg := compare(filepath.Join("testdata", "golden", t.Name()+".txt"), got); msg != "" {
		t.Error(msg)
	}
}

// compare returns "" when got equals the file at path, and otherwise the
// first difference and the path of a temporary file it wrote got to.
func compare(path, got string) string {
	want, err := os.ReadFile(path)
	if err == nil && string(want) == got {
		return ""
	}
	msg := fmt.Sprint(err)
	if err == nil {
		msg = path + ": " + Diff(got, string(want))
	}
	f, ferr := os.CreateTemp("", "*-"+strings.ReplaceAll(filepath.ToSlash(path), "/", "-"))
	if ferr != nil {
		return fmt.Sprintf("%s\nthe text this run got could not be saved: %v", msg, ferr)
	}
	_, ferr = f.WriteString(got)
	if ferr = errors.Join(ferr, f.Close()); ferr != nil {
		return fmt.Sprintf("%s\nthe text this run got could not be saved: %v", msg, ferr)
	}
	return fmt.Sprintf("%s\nthe text this run got is in %s; to record it, copy it over %s", msg, f.Name(), path)
}

// Digest stands in for a text too large to store: one line per section (a
// run of lines with the same first field), "<section> fnv=<FNV-64a of its
// lines> lines=<count>", so a mismatch still names the section that moved.
func Digest(text string) string {
	var b strings.Builder
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	first := func(l string) string { f, _, _ := strings.Cut(l, " "); return f }
	for start := 0; start < len(lines); {
		section, end := first(lines[start]), start+1
		for end < len(lines) && first(lines[end]) == section {
			end++
		}
		fmt.Fprintf(&b, "%s fnv=%016x lines=%d\n", section, sum(lines[start:end]), end-start)
		start = end
	}
	return b.String()
}

// Blocks stands in for a stream too large to store: one line per block of
// per records, "block <index from 1> fnv=<FNV-64a of the block> <first
// record>", so a mismatch names the first block that differs. A newline may
// end a record, not sit inside one.
func Blocks(records []string, per int) string {
	var b strings.Builder
	for i := 0; i*per < len(records); i++ {
		block := records[i*per : min((i+1)*per, len(records))]
		fmt.Fprintf(&b, "block %d fnv=%016x %s\n", i+1, sum(block), strings.TrimSuffix(block[0], "\n"))
	}
	return b.String()
}

// sum is the FNV-64a of lines, each followed by a newline.
func sum(lines []string) uint64 {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l + "\n"))
	}
	return h.Sum64()
}
