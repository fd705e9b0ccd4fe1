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
// declaration in testdata/api.golden. A type the root re-exports by
// alias from an internal package brings its exported methods along, so
// they are pinned too, with the receiver renamed to the alias. An
// added, removed or changed name shows up as a diff of that file;
// rerun with -update after an intended change.
func TestPublicAPIGolden(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	files := parseDir(t, fset, paths)
	pkg, err := doc.NewFromFiles(fset, files, "tooleval")
	if err != nil {
		t.Fatal(err)
	}
	// importPaths maps each import name the root files use to its path.
	importPaths := map[string]string{}
	for _, f := range files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			importPaths[path[strings.LastIndex(path, "/")+1:]] = path
		}
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
		spec := typ.Decl.Specs[0].(*ast.TypeSpec)
		target, ok := spec.Type.(*ast.SelectorExpr)
		if !spec.Assign.IsValid() || !ok {
			continue
		}
		path := importPaths[target.X.(*ast.Ident).Name]
		if !strings.HasPrefix(path, "tooleval/internal/") {
			continue
		}
		methods := aliasedMethods(t, fset, path, target.Sel.Name)
		for _, m := range methods {
			recv := m.Decl.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			recv.(*ast.Ident).Name = typ.Name
		}
		funcs(methods)
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

// parseDir parses the non-test Go files among paths.
func parseDir(t *testing.T, fset *token.FileSet, paths []string) []*ast.File {
	t.Helper()
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
	return files
}

// aliasedMethods returns the exported methods of the type name in the
// module package at importPath.
func aliasedMethods(t *testing.T, fset *token.FileSet, importPath, name string) []*doc.Func {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(strings.TrimPrefix(importPath, "tooleval/"), "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := doc.NewFromFiles(fset, parseDir(t, fset, paths), importPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range pkg.Types {
		if typ.Name == name {
			return typ.Methods
		}
	}
	t.Fatalf("%s has no exported type %s", importPath, name)
	return nil
}
