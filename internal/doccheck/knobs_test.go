package doccheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The knob scan: every exported field of a struct type named …Config or
// …Options under internal/ is a setting, and a setting nothing sets is a
// constant with extra steps. A field is set by a composite-literal key, a
// positional composite literal, an assignment or increment, or by taking
// its address (&cfg.F, as a flag binding does), in any file of the tree:
// tests and hostbench/ included. A write inside a method of the field's own
// type (its fill or validate) does not count: that is the default, not a
// caller's choice. There is no allowlist; a field nothing sets becomes an
// unexported constant of its package, or goes.

// knobScan is what the scan learns from the tree. Fields are keyed by where
// they are declared, which every build of a package shares.
type knobScan struct {
	fields map[token.Pos]knob // every setting
	types  int                // …Config/…Options types holding them
	set    map[token.Pos]bool // settings written outside their type's methods
}

// knob is one setting: an exported field of a …Config/…Options struct.
type knob struct {
	key   string    // "pkg.Type.Field"
	owner token.Pos // its type's name
}

// isKnobType reports whether a type name holds settings.
func isKnobType(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
}

// scanKnobs type-checks the tree under root and records every setting and
// every write to one.
func scanKnobs(root string) (*knobScan, error) {
	l, err := load(root)
	if err != nil {
		return nil, err
	}
	s := &knobScan{fields: map[token.Pos]knob{}, set: map[token.Pos]bool{}}
	for _, c := range l.checks {
		pkg, internal := strings.CutPrefix(c.pkg.Path(), "repro/internal/")
		if !c.canonical || !internal {
			continue
		}
		for _, name := range c.pkg.Scope().Names() {
			tn, ok := c.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !isKnobType(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			s.types++
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					s.fields[f.Pos()] = knob{pkg + "." + name + "." + f.Name(), tn.Pos()}
				}
			}
		}
	}
	for _, c := range l.checks {
		for _, f := range c.files {
			// A test build's own files were seen by the package's build.
			if !c.canonical && !strings.HasSuffix(l.fset.File(f.Pos()).Name(), "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				s.noteWrites(decl, c)
			}
		}
	}
	return s, nil
}

// noteWrites records the fields one top-level declaration sets, leaving out
// those a method sets on its own receiver's type.
func (s *knobScan) noteWrites(decl ast.Decl, c *check) {
	var recv token.Pos
	if d, ok := decl.(*ast.FuncDecl); ok && d.Recv != nil {
		if typ := recvType(c.info.Defs[d.Name].(*types.Func)); typ != nil {
			recv = typ.Pos()
		}
	}
	write := func(pos token.Pos) {
		if k, ok := s.fields[pos]; ok && k.owner != recv {
			s.set[pos] = true
		}
	}
	field := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if x := c.info.Selections[sel]; x != nil && x.Kind() == types.FieldVal {
				write(x.Obj().Pos())
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := c.info.Uses[id].(*types.Var); ok && v.IsField() {
							write(v.Pos())
						}
					}
				} else if st := litStruct(n, c); st != nil {
					write(st.Field(i).Pos())
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				field(lhs)
			}
		case *ast.IncDecStmt:
			field(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				field(n.X)
			}
		}
		return true
	})
}

// litStruct returns the struct type a composite literal spells, or nil when
// it spells another type or elides it (an element of a slice or map
// literal): an unkeyed struct literal with an elided type is not seen, so a
// field set only that way reads as unset, a false alarm rather than a miss.
func litStruct(lit *ast.CompositeLit, c *check) *types.Struct {
	var id *ast.Ident
	switch t := lit.Type.(type) {
	case *ast.Ident:
		id = t
	case *ast.SelectorExpr:
		id = t.Sel
	default:
		return nil
	}
	tn, ok := c.info.Uses[id].(*types.TypeName)
	if !ok {
		return nil
	}
	st, _ := tn.Type().Underlying().(*types.Struct)
	return st
}

// unset returns the key of every setting nothing writes, sorted.
func (s *knobScan) unset() (keys []string) {
	for pos, k := range s.fields {
		if !s.set[pos] {
			keys = append(keys, k.key)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestEveryKnobIsSet fails on an exported field of a …Config or …Options
// struct under internal/ that no code sets outside its own type's methods.
func TestEveryKnobIsSet(t *testing.T) {
	scan, err := scanKnobs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	unset := scan.unset()
	for _, key := range unset {
		t.Errorf("%s: nothing sets it outside its type's methods: make it a constant of its package, or delete it", key)
	}
	t.Logf("%d settings in %d …Config/…Options types, %d set by nothing", len(scan.fields), scan.types, len(unset))
}
