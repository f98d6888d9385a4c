package doccheck

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// The dead-export scan: which exported names under internal/ no other
// package needs. Every package of the tree is type-checked from source,
// hostbench/ included (a nested module that imports the same packages), so
// each name a file spells resolves to the object it denotes.
//
// An exported top-level func, type, var or const is used from outside when a
// non-test file of another package names it, and used at home when a
// non-test file of its own package names it (a declaration naming itself, or
// a method its receiver, does not count). Two rules keep what a caller
// reaches without spelling it:
//   - a type named by an exported signature, field or method of a name used
//     from outside is used from outside too, and so are the consts declared
//     with that type;
//   - a const in a parenthesised block is used when any const of the block
//     is, so protocol enumerations stay whole.
//
// An exported method of an exported type is used from outside when code of
// another package selects it, test files included: a test's accessor cannot
// move into another package's test file. A call through an interface method
// counts for the method of every type that implements the interface, and a
// method of a generic type counts through its origin. Methods that the
// standard library calls on a caller's behalf (stdMethods) count as used.
// A method of an unexported type, whatever its name, is held to the same
// rules except that its own package is where it belongs: it is dead when
// nothing selects it, tests included, and no call through an interface it
// satisfies reaches it. Struct fields are not scanned: hostbench's pin reads
// every exported field of a cell by reflection.
//
// A name used nowhere is dead (delete it); a name used only at home should
// not be exported (unexport it). deadExportAllow holds what is left on
// either list, each with the title of the ROADMAP item it waits for (none
// is left). An allowlisted name counts as used from outside, so what it
// exposes needs no entry of its own. The list may only shrink, like the
// clone ceiling: a new finding fails, and so does an entry that is no longer
// a finding. Methods have no allowlist.
var deadExportAllow = map[string]string{}

// stdMethods are the method names the standard library calls through its
// own interfaces (fmt.Stringer, error, flag.Value, io.Writer, the json
// marshalers, sort.Interface), where no call of the tree's is seen.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Set": true, "Write": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Len": true, "Less": true, "Swap": true,
}

// exportDecl is one exported top-level name of an internal package.
type exportDecl struct {
	block int      // parenthesised const block it belongs to, or 0
	deps  []string // keys of the names its exported surface names
}

// exportScan is what the scan learns from the tree. Top-level names are
// keyed "pkg.Name", methods "pkg.Type.Method".
type exportScan struct {
	decls           map[string]*exportDecl
	blocks          map[int][]string // const block -> its exported consts
	outside, atHome map[string]bool

	methods                   map[string]bool // every exported method of an exported type
	hidden                    map[string]bool // every method of an unexported type
	methodOutside, methodHome map[string]bool
}

// source is one directory's package as the go tool builds it: its non-test
// files, the test files of the same package, and those of the external
// _test package.
type source struct {
	files, tests, xtests []*ast.File
	imports              []string // module packages the non-test files import
}

// universe maps the import path of every module package one build sees to
// the package it sees: a package's test build sees its own test variant,
// and the packages that import it rebuilt on that variant.
type universe map[string]*types.Package

// check is one type-checked package and the universe it was checked in.
type check struct {
	pkg       *types.Package
	files     []*ast.File
	canonical bool // the package as every other build sees it
	info      *types.Info
	in        *universe
}

// loader type-checks the module packages from the sources it parsed; the
// standard library comes from the source importer.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	srcs   map[string]*source
	canon  universe
	checks []*check
}

// parseTree parses every .go file under root that the default build
// context would compile, keyed by import path. root is the module repro;
// hostbench/ is the module repro/hostbench, so the paths line up.
func parseTree(fset *token.FileSet, root string) (map[string]*source, error) {
	srcs := map[string]*source{}
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
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		importPath := "repro"
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		src := srcs[importPath]
		if src == nil {
			src = &source{}
			srcs[importPath] = src
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			src.xtests = append(src.xtests, f)
		case strings.HasSuffix(name, "_test.go"):
			src.tests = append(src.tests, f)
		default:
			src.files = append(src.files, f)
			for _, imp := range f.Imports {
				if p := strings.Trim(imp.Path.Value, `"`); p == "repro" || strings.HasPrefix(p, "repro/") {
					src.imports = append(src.imports, p)
				}
			}
		}
		return nil
	})
	return srcs, err
}

// importFunc adapts a function to types.Importer.
type importFunc func(path string) (*types.Package, error)

func (f importFunc) Import(path string) (*types.Package, error) { return f(path) }

// typeCheck checks files as the package path, importing through in. A
// package rebuilt for another's test build is checked without its function
// bodies and not kept: its own build has seen them.
func (l *loader) typeCheck(path string, files []*ast.File, in *universe, canonical, rebuilt bool, imp importFunc) (*types.Package, error) {
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp, IgnoreFuncBodies: rebuilt}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	if !rebuilt {
		l.checks = append(l.checks, &check{pkg, files, canonical, info, in})
	}
	return pkg, nil
}

// canonical returns the package path as every build but its own test
// build sees it.
func (l *loader) canonical(path string) (*types.Package, error) {
	if p := l.canon[path]; p != nil {
		return p, nil
	}
	src := l.srcs[path]
	if src == nil {
		return l.std.Import(path)
	}
	pkg, err := l.typeCheck(path, src.files, &l.canon, true, false, l.canonical)
	if err != nil {
		return nil, err
	}
	l.canon[path] = pkg
	return pkg, nil
}

// dependsOn reports whether path imports target, directly or not.
func (l *loader) dependsOn(path, target string, memo map[string]bool) bool {
	if v, ok := memo[path]; ok {
		return v
	}
	memo[path] = false
	for _, imp := range l.srcs[path].imports {
		if imp == target || l.dependsOn(imp, target, memo) {
			memo[path] = true
			return true
		}
	}
	return false
}

// testBuild checks path's test files as go test builds them: those of the
// package together with its own files, then the external test package
// against that variant, with every module package that imports path
// rebuilt on it.
func (l *loader) testBuild(path string) error {
	src := l.srcs[path]
	if len(src.tests) == 0 {
		if len(src.xtests) > 0 {
			_, err := l.typeCheck(path+"_test", src.xtests, &l.canon, false, false, l.canonical)
			return err
		}
		return nil
	}
	in := universe{}
	memo := map[string]bool{}
	for p, pkg := range l.canon {
		if !l.dependsOn(p, path, memo) {
			in[p] = pkg
		}
	}
	var imp importFunc
	imp = func(p string) (*types.Package, error) {
		if pkg := in[p]; pkg != nil {
			return pkg, nil
		}
		s := l.srcs[p]
		if s == nil {
			return l.std.Import(p)
		}
		pkg, err := l.typeCheck(p, s.files, &in, false, true, imp)
		in[p] = pkg
		return pkg, err
	}
	pkg, err := l.typeCheck(path, append(src.files[:len(src.files):len(src.files)], src.tests...), &in, false, false, imp)
	if err != nil {
		return err
	}
	in[path] = pkg
	if len(src.xtests) > 0 {
		_, err = l.typeCheck(path+"_test", src.xtests, &in, false, false, imp)
	}
	return err
}

// load type-checks every package under root and the tests of each.
func load(root string) (*loader, error) {
	fset := token.NewFileSet()
	srcs, err := parseTree(fset, root)
	if err != nil {
		return nil, err
	}
	l := &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil), srcs: srcs, canon: universe{}}
	paths := make([]string, 0, len(srcs))
	for path := range srcs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if len(srcs[path].files) > 0 {
			if _, err := l.canonical(path); err != nil {
				return nil, err
			}
		}
	}
	for _, path := range paths {
		if err := l.testBuild(path); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// topKey returns "pkg.Name" for an exported package-level object of an
// internal package, and "" for any other.
func topKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	pkg, ok := strings.CutPrefix(obj.Pkg().Path(), "repro/internal/")
	if !ok {
		return ""
	}
	return pkg + "." + obj.Name()
}

// recvType returns the type name a method is declared on, interfaces
// included, and nil for a function or a method of an unnamed interface
// (error's Error among them).
func recvType(fn *types.Func) types.Object {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || fn.Pkg() == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// methodKey returns "pkg.Type.Method" for a method of a named type, and ""
// for any other function.
func methodKey(fn *types.Func) string {
	typ := recvType(fn)
	if typ == nil {
		return ""
	}
	return strings.TrimPrefix(fn.Pkg().Path(), "repro/internal/") + "." + typ.Name() + "." + fn.Name()
}

// refs returns the key of every exported top-level name n mentions.
func (c *check) refs(n ast.Node) (keys []string) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if key := topKey(c.info.Uses[id]); key != "" {
				keys = append(keys, key)
			}
		}
		return true
	})
	return keys
}

// scanExports type-checks the tree under root and records what every
// package declares and uses.
func scanExports(root string) (*exportScan, error) {
	l, err := load(root)
	if err != nil {
		return nil, err
	}
	s := &exportScan{
		decls: map[string]*exportDecl{}, blocks: map[int][]string{},
		outside: map[string]bool{}, atHome: map[string]bool{},
		methods: map[string]bool{}, hidden: map[string]bool{}, methodOutside: map[string]bool{}, methodHome: map[string]bool{},
	}
	typeDeps := map[string][]string{} // type key -> what its methods name, and its consts
	// Interface methods called, by the universe and interface they were
	// called in.
	ifaceCalls := map[*universe]map[*types.Interface][]string{}
	for _, c := range l.checks {
		internal := strings.HasPrefix(c.pkg.Path(), "repro/internal/")
		for _, f := range c.files {
			// A test build's own files were seen by the package's build.
			if !c.canonical && !strings.HasSuffix(l.fset.File(f.Pos()).Name(), "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				s.noteUses(decl, c, ifaceCalls)
				if c.canonical && internal {
					s.noteDecl(decl, c, typeDeps)
				}
			}
		}
		if !c.canonical || !internal {
			continue
		}
		for _, name := range c.pkg.Scope().Names() {
			tn, ok := c.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); !tn.Exported() {
					s.hidden[methodKey(m)] = true
				} else if m.Exported() {
					s.methods[methodKey(m)] = true
				}
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					if m := iface.ExplicitMethod(i); !tn.Exported() {
						s.hidden[methodKey(m)] = true
					} else if m.Exported() {
						s.methods[methodKey(m)] = true
					}
				}
			}
		}
	}
	for key, deps := range typeDeps {
		if e := s.decls[key]; e != nil {
			e.deps = append(e.deps, deps...)
		}
	}
	for in, calls := range ifaceCalls {
		for iface, names := range calls {
			for _, key := range implementations(in, iface, names) {
				s.methodOutside[key] = true
			}
		}
	}
	return s, nil
}

// noteDecl records the exported names one top-level declaration of an
// internal package declares, and what each exposes.
func (s *exportScan) noteDecl(decl ast.Decl, c *check, typeDeps map[string][]string) {
	prefix := strings.TrimPrefix(c.pkg.Path(), "repro/internal/") + "."
	switch d := decl.(type) {
	case *ast.FuncDecl:
		switch {
		case !d.Name.IsExported():
		case d.Recv == nil:
			s.decls[prefix+d.Name.Name] = &exportDecl{deps: c.refs(d.Type)}
		default:
			if key := topKey(recvType(c.info.Defs[d.Name].(*types.Func))); key != "" {
				typeDeps[key] = append(typeDeps[key], c.refs(d.Type)...)
			}
		}
	case *ast.GenDecl:
		block := 0
		if d.Tok == token.CONST && d.Lparen.IsValid() {
			block = len(s.blocks) + 1
			s.blocks[block] = nil
		}
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				if sp.Name.IsExported() {
					s.decls[prefix+sp.Name.Name] = &exportDecl{deps: c.refs(exportedSurface(sp.Type))}
				}
			case *ast.ValueSpec:
				var deps []string
				if sp.Type != nil {
					deps = c.refs(sp.Type)
				}
				for _, v := range sp.Values {
					deps = append(deps, c.refs(v)...)
				}
				for _, id := range sp.Names {
					if !id.IsExported() {
						continue
					}
					key := prefix + id.Name
					s.decls[key] = &exportDecl{block: block, deps: deps}
					if block != 0 {
						s.blocks[block] = append(s.blocks[block], key)
					}
					if _, ok := sp.Type.(*ast.Ident); ok && d.Tok == token.CONST {
						for _, typ := range c.refs(sp.Type) {
							typeDeps[typ] = append(typeDeps[typ], key)
						}
					}
				}
			}
		}
	}
}

// noteUses records what one top-level declaration names. From a build of
// the package as others see it: exported top-level names of internal
// packages, in outside when they belong to another package and in atHome
// otherwise (a declaration naming itself, and a method naming its receiver
// type, are not uses). From any build: the methods it selects, in
// methodOutside or methodHome (a method calling itself is not a use), and
// the interface methods it calls in ifaceCalls.
func (s *exportScan) noteUses(decl ast.Decl, c *check, ifaceCalls map[*universe]map[*types.Interface][]string) {
	var owner types.Object
	var self *types.Func
	switch d := decl.(type) {
	case *ast.FuncDecl:
		owner = c.info.Defs[d.Name]
		if d.Recv != nil {
			self = owner.(*types.Func)
			owner = recvType(self)
		}
	case *ast.GenDecl:
		if len(d.Specs) == 1 {
			if sp, ok := d.Specs[0].(*ast.TypeSpec); ok {
				owner = c.info.Defs[sp.Name]
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := c.info.Uses[n]
			key := topKey(obj)
			switch {
			case key == "" || !c.canonical:
			case obj.Pkg() != c.pkg:
				s.outside[key] = true
			case obj != owner:
				s.atHome[key] = true
			}
		case *ast.SelectorExpr:
			sel := c.info.Selections[n]
			if sel == nil || sel.Kind() == types.FieldVal {
				return true
			}
			fn := sel.Obj().(*types.Func).Origin()
			recv := fn.Type().(*types.Signature).Recv().Type()
			switch key := methodKey(fn); {
			case fn == self:
			case types.IsInterface(recv):
				s.methodOutside[key] = true
				if ifaceCalls[c.in] == nil {
					ifaceCalls[c.in] = map[*types.Interface][]string{}
				}
				iface := recv.Underlying().(*types.Interface)
				ifaceCalls[c.in][iface] = append(ifaceCalls[c.in][iface], fn.Name())
			case fn.Pkg().Path() == c.pkg.Path():
				s.methodHome[key] = true
			default:
				s.methodOutside[key] = true
			}
		}
		return true
	})
}

// implementations returns the key of the method named by each of names on
// every named type of the universe that implements iface.
func implementations(in *universe, iface *types.Interface, names []string) (keys []string) {
	for _, pkg := range *in {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			if !types.Implements(ptr, iface) {
				continue
			}
			for _, name := range names {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, pkg, name)
				if fn, ok := obj.(*types.Func); ok {
					keys = append(keys, methodKey(fn.Origin()))
				}
			}
		}
	}
	return keys
}

// findings returns the exported names no non-test file names (dead) and
// those named only within their own package (home), taking the names in
// kept as used from outside: what they expose stays exported with them.
// Methods follow, by their own rule.
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
	called := func(key string) bool {
		return s.methodOutside[key] || stdMethods[key[strings.LastIndex(key, ".")+1:]]
	}
	for key := range s.methods {
		switch {
		case called(key):
		case s.methodHome[key]:
			home = append(home, key)
		default:
			dead = append(dead, key)
		}
	}
	for key := range s.hidden {
		if !called(key) && !s.methodHome[key] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	sort.Strings(home)
	return dead, home
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

// TestDeadExports fails when an exported top-level name under internal/ is
// named by no non-test file, or only by its own package, and is not in
// deadExportAllow; when an exported method of an exported type there is
// selected by no file, or only by its own package's; when a method of an
// unexported type there is selected by no file; and when an entry of
// deadExportAllow is neither.
func TestDeadExports(t *testing.T) {
	start := time.Now()
	scan, err := scanExports(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dead, home := scan.findings(deadExportAllow)
	for _, list := range []struct {
		keys []string
		what string
	}{
		{dead, "nothing uses it: delete it"},
		{home, "only its own package uses it: unexport it"},
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
	t.Logf("%d exported names and methods used by nothing, %d only by their own package; %d allowlisted; %d methods scanned; %v",
		len(dead), len(home), len(deadExportAllow), len(scan.methods)+len(scan.hidden), time.Since(start).Round(time.Millisecond))
	for key, reason := range deadExportAllow {
		if reason == "" {
			t.Errorf("%s is allowlisted without the ROADMAP item it waits for", key)
		}
		if !found[key] {
			t.Errorf("%s is allowlisted but another package uses it (or it is gone): drop the entry", key)
		}
	}
}
