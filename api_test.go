package tooleval_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.golden")

// TestPublicAPIGolden pins the exported surface of package tooleval:
// every exported constant, variable, function, type and method,
// rendered as its declaration without doc text, one sorted entry per
// declaration in testdata/api.golden. An added, removed or changed
// name shows up as a diff of that file; rerun with -update after an
// intended change.
func TestPublicAPIGolden(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "tooleval")
	if err != nil {
		t.Fatal(err)
	}

	var entries []string
	gofmt := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
	render := func(node any) {
		var b bytes.Buffer
		if err := gofmt.Fprint(&b, fset, node); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, b.String())
	}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			v.Decl.Doc = nil
			render(v.Decl)
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			f.Decl.Doc, f.Decl.Body = nil, nil
			render(f.Decl)
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		typ.Decl.Doc = nil
		render(typ.Decl)
		values(typ.Consts)
		values(typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	sort.Strings(entries)
	got := strings.Join(entries, "\n\n") + "\n"

	golden := filepath.Join("testdata", "api.golden")
	if *updateAPI {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported API differs from %s; rerun with -update after an intended change.\ngot:\n%s", golden, got)
	}
}
