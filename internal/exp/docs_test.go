package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docCommands returns, for every exp command README.md, EXPERIMENTS.md,
// DESIGN.md and docs/*.md print — `go run ./cmd/exp …`, `cmd/exp …`, or
// exp opening a code span or a line — where it is printed and the words
// after "exp". A command's words end at a backtick, a `#` comment, a table
// bar or a parenthesis.
func docCommands(t *testing.T, root string) map[string][][]string {
	t.Helper()
	files := []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"}
	more, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range more {
		files = append(files, strings.TrimPrefix(f, root+string(filepath.Separator)))
	}
	cmd := regexp.MustCompile("(?:go run \\./cmd/|cmd/|`|^\\s*)exp\\b((?:[ \\t]+[^\\s`#|;()]+)*)")
	out := map[string][][]string{}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range cmd.FindAllStringSubmatch(line, -1) {
				where := fmt.Sprintf("%s:%d", f, i+1)
				out[where] = append(out[where], strings.Fields(m[1]))
			}
		}
	}
	return out
}

// TestDocsPrintParsableExpCommands: every exp command the docs print names
// a table row and sets only flags that row accepts (as `exp <row> -h`
// lists them). Nothing is run.
func TestDocsPrintParsableExpCommands(t *testing.T) {
	listed := regexp.MustCompile(`(?m)^  -(\S+)`)
	rowFlags := map[string]map[string]bool{}
	for _, e := range experiments {
		var out, errb bytes.Buffer
		if code := Main([]string{e.name, "-h"}, &out, &errb); code != 0 {
			t.Fatalf("exp %s -h: exit %d", e.name, code)
		}
		rowFlags[e.name] = map[string]bool{"h": true, "help": true}
		for _, m := range listed.FindAllStringSubmatch(errb.String(), -1) {
			rowFlags[e.name][m[1]] = true
		}
	}
	flagWord := regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=.*)?$`)
	checked := 0
	for where, cmds := range docCommands(t, filepath.Join("..", "..")) {
		for _, args := range cmds {
			if len(args) == 0 || strings.HasPrefix(args[0], "<") {
				continue // `exp` alone, or `exp <name>`
			}
			flags, ok := rowFlags[args[0]]
			if !ok {
				t.Errorf("%s: exp %s: no such experiment", where, strings.Join(args, " "))
				continue
			}
			checked++
			for _, w := range args[1:] {
				if m := flagWord.FindStringSubmatch(w); m != nil && !flags[m[1]] {
					t.Errorf("%s: exp %s: flag -%s is not defined", where, strings.Join(args, " "), m[1])
				}
			}
		}
	}
	if checked < 40 {
		t.Fatalf("found only %d exp commands in the docs; the scanner is broken", checked)
	}
}
