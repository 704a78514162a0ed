package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFlags returns, for every mpimon command README.md, EXPERIMENTS.md,
// DESIGN.md and docs/*.md print — `go run ./cmd/mpimon …`, `cmd/mpimon …`,
// or mpimon opening a code span or a line — where it is printed and the
// flags it sets. A command's words end at a backtick, a `#` comment, a
// table bar or a parenthesis.
func docFlags(t *testing.T, root string) map[string][]string {
	t.Helper()
	files := []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"}
	more, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range more {
		files = append(files, strings.TrimPrefix(f, root+string(filepath.Separator)))
	}
	cmd := regexp.MustCompile("(?:go run \\./cmd/|cmd/|`|^\\s*)mpimon\\b((?:[ \\t]+[^\\s`#|;()]+)*)")
	flagWord := regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=.*)?$`)
	out := map[string][]string{}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range cmd.FindAllStringSubmatch(line, -1) {
				where := fmt.Sprintf("%s:%d", f, i+1)
				out[where] = append(out[where], "") // a command, maybe without flags
				for _, w := range strings.Fields(m[1]) {
					if fm := flagWord.FindStringSubmatch(w); fm != nil {
						out[where] = append(out[where], fm[1])
					}
				}
			}
		}
	}
	return out
}

// TestDocsPrintParsableMpimonCommands: every flag an mpimon command in the
// docs sets is one of mpimon's 16 flags (as `mpimon -h` lists them).
// Nothing is run.
func TestDocsPrintParsableMpimonCommands(t *testing.T) {
	var usage bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("mpimon -h: %v", err)
	}
	defined := map[string]bool{"h": true, "help": true}
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage.String(), -1) {
		defined[m[1]] = true
	}
	if len(defined) != 2+16 {
		t.Fatalf("mpimon -h lists %d flags, want 16:\n%s", len(defined)-2, usage.String())
	}
	commands := 0
	for where, flags := range docFlags(t, filepath.Join("..", "..")) {
		for _, name := range flags {
			if name == "" {
				commands++
			} else if !defined[name] {
				t.Errorf("%s: mpimon has no flag -%s", where, name)
			}
		}
	}
	if commands < 8 {
		t.Fatalf("found only %d mpimon commands in the docs; the scanner is broken", commands)
	}
}
