// Package doccheck is a repository lint, run as an ordinary test in CI:
// it parses selected packages and fails when an exported declaration (or
// the package itself) lacks a doc comment, keeping `go doc` output usable
// for the API surfaces other PRs build against.
package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// checkedPackages lists the package directories (relative to the repo
// root) held to the exported-doc-comment standard.
var checkedPackages = []string{
	"cmd/repro",
	"internal/health",
	"internal/metrics",
	"internal/netqueue",
	"internal/replay",
	"internal/tcpsim",
	"internal/testbed",
	"internal/tracing",
}

// TestExportedDeclsAreDocumented parses each checked package (tests
// excluded) and reports every exported type, function, method, constant
// and variable declared without a doc comment.
func TestExportedDeclsAreDocumented(t *testing.T) {
	for _, dir := range checkedPackages {
		dir := dir
		t.Run(strings.ReplaceAll(dir, "/", "-"), func(t *testing.T) {
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, filepath.Join("..", "..", dir),
				func(fi fs.FileInfo) bool {
					return !strings.HasSuffix(fi.Name(), "_test.go")
				}, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				checkPackage(t, fset, dir, pkg)
			}
		})
	}
}

func checkPackage(t *testing.T, fset *token.FileSet, dir string, pkg *ast.Package) {
	t.Helper()
	hasPkgDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil {
			hasPkgDoc = true
		}
		for _, decl := range f.Decls {
			checkDecl(t, fset, decl)
		}
	}
	if !hasPkgDoc {
		t.Errorf("%s: package %s has no package doc comment", dir, pkg.Name)
	}
}

func checkDecl(t *testing.T, fset *token.FileSet, decl ast.Decl) {
	t.Helper()
	pos := func(p token.Pos) string { return fset.Position(p).String() }
	switch d := decl.(type) {
	case *ast.FuncDecl:
		// Methods on unexported receivers never surface in `go doc`
		// (interface satisfaction is documented on the interface).
		if d.Recv != nil && !exportedRecv(d.Recv) {
			return
		}
		if d.Name.IsExported() && d.Doc == nil {
			t.Errorf("%s: exported %s %s has no doc comment",
				pos(d.Pos()), kindOf(d), d.Name.Name)
		}
	case *ast.GenDecl:
		// A documented group (e.g. a const block with one leading
		// comment) covers its members.
		groupDoc := d.Doc != nil
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && !groupDoc {
					t.Errorf("%s: exported type %s has no doc comment",
						pos(s.Pos()), s.Name.Name)
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.IsExported() && s.Doc == nil && s.Comment == nil && !groupDoc {
						t.Errorf("%s: exported %s %s has no doc comment",
							pos(s.Pos()), d.Tok, name.Name)
					}
				}
			}
		}
	}
}

// kindOf names a func decl for the error message.
func kindOf(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// exportedRecv reports whether a method's receiver type is exported.
func exportedRecv(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch u := typ.(type) {
		case *ast.StarExpr:
			typ = u.X
		case *ast.IndexExpr: // generic receiver
			typ = u.X
		case *ast.Ident:
			return u.IsExported()
		default:
			return false
		}
	}
}
