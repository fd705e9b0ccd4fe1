package tooleval_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdRef matches a cited Markdown document, such as README.md or
// perfbench/README.md.
var mdRef = regexp.MustCompile(`(?:[\w.-]+/)*[A-Z_]+\.md\b`)

// TestDocReferencesExist fails on a line of Go that cites a Markdown
// document the repository does not have. A citation resolves against the
// citing file's directory or the repository root. perfbench/ is its own
// module and is not scanned.
func TestDocReferencesExist(t *testing.T) {
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
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
		for i, line := range strings.Split(string(data), "\n") {
			for _, ref := range mdRef.FindAllString(line, -1) {
				if !exists(ref) && !exists(filepath.Join(filepath.Dir(path), ref)) {
					t.Errorf("%s:%d cites %s, which is not in the repository", path, i+1, ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
