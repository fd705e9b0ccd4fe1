package tooleval_test

import (
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// walkGo calls fn with the path and contents of every .go file in the
// repository. perfbench/ is its own module and is not walked, nor are
// dot directories.
func walkGo(t *testing.T, fn func(path string, data []byte)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(path, data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mdRef matches a cited Markdown document, such as README.md or
// perfbench/README.md.
var mdRef = regexp.MustCompile(`(?:[\w.-]+/)*[A-Z_]+\.md\b`)

// TestDocReferencesExist fails on a line of Go that cites a Markdown
// document the repository does not have. A citation resolves against the
// citing file's directory or the repository root.
func TestDocReferencesExist(t *testing.T) {
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	walkGo(t, func(path string, data []byte) {
		for i, line := range strings.Split(string(data), "\n") {
			for _, ref := range mdRef.FindAllString(line, -1) {
				if !exists(ref) && !exists(filepath.Join(filepath.Dir(path), ref)) {
					t.Errorf("%s:%d cites %s, which is not in the repository", path, i+1, ref)
				}
			}
		}
	})
}

var (
	fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	fuzzLine = regexp.MustCompile(`-fuzz='\^(Fuzz\w+)\$\$'.* \./(\S+)$`)
)

// TestFuzzTargetsInFuzzSmoke fails when a native fuzz target has no line
// in the Makefile's fuzz-smoke target, which CI runs, or when a line
// there names a target that does not exist.
func TestFuzzTargetsInFuzzSmoke(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{} // "FuzzX ./pkg"
	inTarget := false
	for _, line := range strings.Split(string(makefile), "\n") {
		switch {
		case strings.HasPrefix(line, "fuzz-smoke:"):
			inTarget = true
		case inTarget && strings.HasPrefix(line, "\t"):
			if m := fuzzLine.FindStringSubmatch(line); m != nil {
				listed[m[1]+" ./"+m[2]] = true
			}
		default:
			inTarget = false
		}
	}
	found := map[string]bool{}
	walkGo(t, func(path string, data []byte) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		for _, m := range fuzzFunc.FindAllSubmatch(data, -1) {
			key := string(m[1]) + " ./" + filepath.ToSlash(filepath.Dir(path))
			found[key] = true
			if !listed[key] {
				t.Errorf("%s: %s has no -fuzz line in the Makefile's fuzz-smoke target", path, key)
			}
		}
	})
	for _, key := range slices.Sorted(maps.Keys(listed)) {
		if !found[key] {
			t.Errorf("Makefile fuzz-smoke runs %s, which no _test.go file defines", key)
		}
	}
}
