package doccheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The dead-export scan: which exported names under internal/ no code but
// tests needs. Every non-test .go file of the tree is parsed, hostbench/
// included (a nested module that imports the same packages). An exported
// top-level func, type, var or const is used from outside when a file of
// another package names it as pkg.Name, and used at home when a non-test
// file of its own package names it (a declaration naming itself, or a
// method its receiver, does not count). Two rules keep what a caller
// reaches without spelling it:
//   - a type named by an exported signature, field or method of a name used
//     from outside is used from outside too, and so are the consts declared
//     with that type;
//   - a const in a parenthesised block is used when any const of the block
//     is, so protocol enumerations stay whole.
//
// A name used nowhere is dead (delete it); a name used only at home should
// not be exported (unexport it). deadExportAllow holds what is left on
// either list, each with the title of the ROADMAP item it waits for. An
// allowlisted name counts as used from outside, so what it exposes needs no
// entry of its own. The list may only shrink, like the clone ceiling: a new
// finding fails, and so does an entry that is no longer a finding.
var deadExportAllow = map[string]string{
	// The root benchmarks time one micro-op per stack; the item's first
	// step deletes the Benchmark* functions hostbench already covers.
	"core.FindMicroOp": "Unfreeze the design: events are the interface, one sweep engine, cells in parallel",
	"core.MicroCount":  "Unfreeze the design: events are the interface, one sweep engine, cells in parallel",
	// nfsplus has no caller but its tests and Example_delegation: the item
	// folds it into a testbed stack or deletes it.
	"nfsplus.AggregationFactor": "Section 7 as a stack, not a sidecar",
	"nfsplus.NewClient":         "Section 7 as a stack, not a sidecar",
	"nfsplus.NewCoordinator":    "Section 7 as a stack, not a sidecar",
	"nfsplus.Stack":             "Section 7 as a stack, not a sidecar",
}

// exportDecl is one exported top-level name of an internal package.
type exportDecl struct {
	block int      // parenthesised const block it belongs to, or 0
	deps  []string // keys of the names its exported surface names
}

// exportScan is what the scan learns from the tree, keyed "pkg.Name".
type exportScan struct {
	decls           map[string]*exportDecl
	blocks          map[int][]string // const block -> its exported consts
	outside, atHome map[string]bool
}

// scanExports parses every non-test .go file under root.
func scanExports(root string) (*exportScan, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // directory -> non-test files
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		rel = filepath.ToSlash(rel)
		files[rel] = append(files[rel], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	decls := map[string]*exportDecl{}
	typeDeps := map[string][]string{} // type key -> what its methods name, and its consts
	outside, atHome := map[string]bool{}, map[string]bool{}
	blocks := map[int][]string{}
	for dir, dirFiles := range files {
		pkg := strings.TrimPrefix(dir, "internal/")
		for _, f := range dirFiles {
			imports := importNames(f)
			// typeKeys returns the key of every exported name n mentions.
			typeKeys := func(n ast.Node) (keys []string) {
				ast.Inspect(n, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
							keys = append(keys, strings.TrimPrefix(imports[x.Name], "internal/")+"."+n.Sel.Name)
						}
						return false
					case *ast.Ident:
						if n.IsExported() {
							keys = append(keys, pkg+"."+n.Name)
						}
					}
					return true
				})
				return keys
			}
			for _, decl := range f.Decls {
				noteUses(decl, dir, pkg, imports, outside, atHome)
				if !strings.HasPrefix(dir, "internal/") {
					continue
				}
				switch d := decl.(type) {
				case *ast.FuncDecl:
					switch {
					case !d.Name.IsExported():
					case d.Recv == nil:
						decls[pkg+"."+d.Name.Name] = &exportDecl{deps: typeKeys(d.Type)}
					default:
						key := pkg + "." + recvName(d.Recv)
						typeDeps[key] = append(typeDeps[key], typeKeys(d.Type)...)
					}
				case *ast.GenDecl:
					block := 0
					if d.Tok == token.CONST && d.Lparen.IsValid() {
						block = len(blocks) + 1
						blocks[block] = nil
					}
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								decls[pkg+"."+s.Name.Name] = &exportDecl{deps: typeKeys(exportedSurface(s.Type))}
							}
						case *ast.ValueSpec:
							var deps []string
							if s.Type != nil {
								deps = typeKeys(s.Type)
							}
							for _, v := range s.Values {
								deps = append(deps, typeKeys(v)...)
							}
							for _, id := range s.Names {
								if id.IsExported() {
									key := pkg + "." + id.Name
									decls[key] = &exportDecl{block: block, deps: deps}
									if block != 0 {
										blocks[block] = append(blocks[block], key)
									}
									if typ, ok := s.Type.(*ast.Ident); ok && d.Tok == token.CONST {
										typeDeps[pkg+"."+typ.Name] = append(typeDeps[pkg+"."+typ.Name], key)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for key, deps := range typeDeps {
		if e := decls[key]; e != nil {
			e.deps = append(e.deps, deps...)
		}
	}
	return &exportScan{decls, blocks, outside, atHome}, nil
}

// findings returns the exported names no non-test file names (dead) and
// those named only within their own package (home), taking the names in
// kept as used from outside: what they expose stays exported with them.
func (s *exportScan) findings(kept map[string]string) (dead, home []string) {
	// A const block is used as a whole; what a name used from outside
	// exposes is used from outside.
	spread := func(seed map[string]bool, withDeps bool) map[string]bool {
		used, work := map[string]bool{}, []string{}
		for key := range seed {
			used[key] = true
			work = append(work, key)
		}
		for len(work) > 0 {
			e := s.decls[work[len(work)-1]]
			work = work[:len(work)-1]
			if e == nil {
				continue
			}
			next := s.blocks[e.block]
			if withDeps {
				next = append(next[:len(next):len(next)], e.deps...)
			}
			for _, k := range next {
				if !used[k] {
					used[k] = true
					work = append(work, k)
				}
			}
		}
		return used
	}
	roots := map[string]bool{}
	for key := range s.outside {
		roots[key] = true
	}
	for key := range kept {
		roots[key] = true
	}
	outside, atHome := spread(roots, true), spread(s.atHome, false)
	for key := range s.decls {
		switch {
		case outside[key]:
		case atHome[key]:
			home = append(home, key)
		default:
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	sort.Strings(home)
	return dead, home
}

// noteUses records what one top-level declaration of the package in dir
// names: pkg.Name selectors into other packages in outside, and exported
// names of its own package in atHome. A declaration naming itself, and a
// method naming its receiver type, are not uses; neither are declared
// names, field names and selected names.
func noteUses(decl ast.Decl, dir, pkg string, imports map[string]string, outside, atHome map[string]bool) {
	owner := ""
	switch d := decl.(type) {
	case *ast.FuncDecl:
		owner = d.Name.Name
		if d.Recv != nil {
			owner = recvName(d.Recv)
		}
	case *ast.GenDecl:
		if len(d.Specs) == 1 {
			if s, ok := d.Specs[0].(*ast.TypeSpec); ok {
				owner = s.Name.Name
			}
		}
	}
	skip := map[*ast.Ident]bool{}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			skip[n.Name] = true
		case *ast.TypeSpec:
			skip[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" && imports[x.Name] != dir {
				outside[strings.TrimPrefix(imports[x.Name], "internal/")+"."+n.Sel.Name] = true
			}
		case *ast.Ident:
			if !skip[n] && n.IsExported() && n.Name != owner {
				atHome[pkg+"."+n.Name] = true
			}
		}
		return true
	})
}

// importNames maps the name a file uses for each of the module's own
// packages it imports to that package's directory.
func importNames(f *ast.File) map[string]string {
	names := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		dir, ok := strings.CutPrefix(path, "repro/")
		if !ok {
			continue
		}
		name := dir[strings.LastIndex(dir, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names[name] = dir
	}
	return names
}

// recvName returns the name of a method's receiver type.
func recvName(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	for {
		switch u := typ.(type) {
		case *ast.StarExpr:
			typ = u.X
		case *ast.IndexExpr:
			typ = u.X
		case *ast.IndexListExpr:
			typ = u.X
		case *ast.Ident:
			return u.Name
		default:
			return ""
		}
	}
}

// exportedSurface returns the part of a type declaration a caller in
// another package can reach: a struct's exported and embedded fields, an
// interface's exported methods and embeddings, or any other type whole.
func exportedSurface(typ ast.Expr) ast.Node {
	var fields *ast.FieldList
	switch t := typ.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return typ
	}
	surface := &ast.FieldList{}
	for _, f := range fields.List {
		if len(f.Names) == 0 || f.Names[0].IsExported() {
			surface.List = append(surface.List, &ast.Field{Type: f.Type})
		}
	}
	return surface
}

// TestDeadExports fails when an exported name under internal/ is named by
// no non-test file, or only by its own package, and is not in
// deadExportAllow; and when an entry of deadExportAllow is neither.
func TestDeadExports(t *testing.T) {
	scan, err := scanExports(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dead, home := scan.findings(deadExportAllow)
	for _, list := range []struct {
		keys []string
		what string
	}{
		{dead, "no non-test file names it: delete it"},
		{home, "only its own package names it: unexport it"},
	} {
		for _, key := range list.keys {
			t.Errorf("%s: %s", key, list.what)
		}
	}
	dead, home = scan.findings(nil)
	found := map[string]bool{}
	for _, key := range append(dead, home...) {
		found[key] = true
	}
	t.Logf("%d exported names named by no non-test file, %d only by their own package; %d allowlisted",
		len(dead), len(home), len(deadExportAllow))
	for key, reason := range deadExportAllow {
		if reason == "" {
			t.Errorf("%s is allowlisted without the ROADMAP item it waits for", key)
		}
		if !found[key] {
			t.Errorf("%s is allowlisted but another package uses it (or it is gone): drop the entry", key)
		}
	}
}
