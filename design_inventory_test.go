package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// moduleRow matches a row of DESIGN.md's module tables and captures the
// module named in its first cell: "| `internal/router` | …".
var moduleRow = regexp.MustCompile("^\\| `([^`]+)` \\|")

// TestDesignInventory holds DESIGN.md's module tables (§2) to the tree:
// every package under internal/, cmd/ and noc/ has a row, and every row
// names a package or file that exists.
func TestDesignInventory(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "\n## 2. ")
	end := strings.Index(text, "\n## 3. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §2 module inventory")
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(text[start:end], "\n") {
		if m := moduleRow.FindStringSubmatch(line); m != nil {
			listed[m[1]] = true
		}
	}
	for name := range listed {
		if _, err := os.Stat(name); err != nil {
			t.Errorf("DESIGN.md lists %s, which does not exist", name)
		}
	}
	for _, root := range []string{"internal", "cmd", "noc"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() && hasPackage(t, path) && !listed[filepath.ToSlash(path)] {
				t.Errorf("package %s is missing from DESIGN.md's module tables", path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// hasPackage reports whether dir holds a non-test Go file.
func hasPackage(t *testing.T, dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
