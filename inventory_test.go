package mpimon

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignInventoryMatchesPackages: DESIGN.md §3 has one row per package
// of `go list ./...`, in that order, so a package added or deleted without
// its row fails here.
func TestDesignInventoryMatchesPackages(t *testing.T) {
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			seen[strings.TrimSuffix("mpimon/"+filepath.ToSlash(filepath.Dir(path)), "/.")] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for p := range seen {
		pkgs = append(pkgs, p)
	}
	slices.Sort(pkgs)

	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(raw), "## 3. System inventory")
	sec, _, _ = strings.Cut(sec, "\n## ")
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)`").FindAllStringSubmatch(sec, -1) {
		if m[1] != "mpimon" {
			m[1] = "mpimon/" + m[1]
		}
		rows = append(rows, m[1])
	}
	if !slices.Equal(rows, pkgs) {
		t.Fatalf("DESIGN.md §3 lists\n  %v\nthe packages are\n  %v", rows, pkgs)
	}
}
