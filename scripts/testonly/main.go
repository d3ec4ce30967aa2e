// Command testonly lists production declarations that only tests reach,
// and struct fields production does not both write and read. It
// type-checks the non-test files of one or more Go modules with the
// standard library alone (go/parser, go/types, and go/importer over the
// export data `go list -export` writes), then walks references from the
// roots:
//
//   - every func main and func init;
//   - every package-level var initialiser (it runs at program start);
//   - every declaration annotated as a test oracle or seam (below).
//
// A declaration is reachable when a reachable declaration names it. A
// method is also reachable when its receiver type is reachable and
// implements an interface that declares the method: any named interface
// of the modules or of a package they import, `error`, or an interface
// literal in the modules' code. That keeps methods called through an
// interface (flag.Value.Set, fmt.Stringer.String, error.Error) live.
//
// Every unreachable top-level func, method, type, const and var is
// listed as `file:line name`, and the command exits 1. A declaration
// whose doc comment has a line that begins "Test oracle:" or "Test
// seam:", followed by the test that needs it, is kept deliberately and
// not listed.
//
// An unexported struct field is live only if non-test code both writes
// and reads it. A write is `x.f = v`, `x.f op= v`, `x.f++`, a keyed
// struct literal `T{f: v}`, or a positional literal, which writes every
// field. A use that changes a value through the field (`x.f[k]++`,
// `x.f.g = v`, `&x.f`, `x.f.M()`) both reads and writes it; a read that
// only feeds the field itself (`x.n += o.n`) does not count; hashing a
// struct as a map key or comparing structs reads every field; any other
// use reads it. Reads in annotated declarations count, reads in _test.go
// files do not, and embedded fields are skipped. Each other field is
// listed as `file:line Type.field (never read)` or `(never written)`; a
// "Test seam:" line in the field's own doc comment keeps it.
//
// Usage:
//
//	go run ./scripts/testonly [moduledir ...]
//
// The default module directories are "." and "bench".
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = []string{".", "bench"}
	}
	found, err := dead(dirs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "testonly:", err)
		os.Exit(2)
	}
	for _, f := range found {
		fmt.Println(f)
	}
	if len(found) > 0 {
		fmt.Fprintf(os.Stderr, "testonly: %d dead declaration(s) or field(s)\n", len(found))
		os.Exit(1)
	}
}

// listedPackage is the part of `go list -json` output the tool reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// listPackages runs `go list -deps -export` in each module directory and
// returns every package once, dependencies before dependents.
func listPackages(dirs []string) ([]*listedPackage, error) {
	var out []*listedPackage
	seen := map[string]bool{}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-e", "-deps", "-export",
			"-json=ImportPath,Dir,GoFiles,Export,Module,Error", "./...")
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		for {
			p := new(listedPackage)
			if err := dec.Decode(p); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, err
			}
			if p.Error != nil {
				return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// decl is one top-level declaration of a module package.
type decl struct {
	obj  types.Object
	pos  token.Position
	name string
	// refs are the module declarations this one names.
	refs []types.Object
	// root marks func main/init and annotated declarations.
	root bool
	// annotated marks a "Test oracle:" or "Test seam:" doc line.
	annotated bool
}

// field is one unexported, named struct field of a module type.
type field struct {
	pos  token.Position
	name string
	// kept marks a "Test seam:" line in the field's own doc comment.
	kept bool
}

// What non-test code does with a field.
const (
	fieldRead uint8 = 1 << iota
	fieldWritten
)

// graph holds the declarations, the fields and what is done with them,
// and the interfaces a method may be called through.
type graph struct {
	decls  map[types.Object]*decl
	fields map[*types.Var]*field
	access map[*types.Var]uint8
	// initRefs are the declarations package-level var initialisers name.
	initRefs []types.Object
	// ifaces indexes interfaces by the names of the methods they declare.
	ifaces map[string][]*types.Interface
}

// dead type-checks the modules in dirs and returns the sorted `file:line`
// list of declarations no root reaches and of fields never read or never
// written.
func dead(dirs []string) ([]string, error) {
	pkgs, err := listPackages(dirs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Module == nil {
			exports[p.ImportPath] = p.Export
		}
	}
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return stdImporter.Import(path)
	})
	g := &graph{
		decls:  map[types.Object]*decl{},
		fields: map[*types.Var]*field{},
		access: map[*types.Var]uint8{},
		ifaces: map[string][]*types.Interface{},
	}
	g.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	root, err := filepath.Abs(dirs[0])
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if p.Module == nil {
			continue
		}
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg
		for _, f := range files {
			g.addFile(fset, root, pkg, info, f)
			g.addFields(fset, root, info, f)
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				g.addInterface(it)
			}
		}
	}
	seenPkg := map[*types.Package]bool{}
	for _, pkg := range checked {
		g.addPackageInterfaces(pkg, seenPkg)
	}
	return g.report(), nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addInterface indexes an interface under each method name it declares.
func (g *graph) addInterface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		g.ifaces[name] = append(g.ifaces[name], it)
	}
}

// addPackageInterfaces indexes the named interfaces of pkg and of every
// package it imports, each package once.
func (g *graph) addPackageInterfaces(pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				g.addInterface(it)
			}
		}
	}
	for _, imp := range pkg.Imports() {
		g.addPackageInterfaces(imp, seen)
	}
}

// addFile records each top-level declaration of one file with the module
// declarations it names.
func (g *graph) addFile(fset *token.FileSet, root string, pkg *types.Package, info *types.Info, f *ast.File) {
	refs := func(n ast.Node) []types.Object {
		var out []types.Object
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := declared(info.Uses[id]); obj != nil {
					out = append(out, obj)
				}
			}
			return true
		})
		return out
	}
	add := func(id *ast.Ident, name string, doc *ast.CommentGroup, n ast.Node) *decl {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return nil
		}
		d := &decl{obj: obj, pos: position(fset, root, id.Pos()), name: name, refs: refs(n), annotated: annotated(doc)}
		d.root = d.annotated
		g.decls[obj] = d
		return d
	}
	for _, dl := range f.Decls {
		switch d := dl.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil {
				name = recvName(d.Recv.List[0].Type) + "." + name
			}
			fd := add(d.Name, name, d.Doc, d)
			if fd != nil && d.Recv == nil && (name == "init" || name == "main" && pkg.Name() == "main") {
				fd.root = true
			}
		case *ast.GenDecl:
			var enum []*decl
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s.Name.Name, docOf(d, s.Doc), s)
				case *ast.ValueSpec:
					// A const names what its value names; a var's
					// initialiser runs at program start, so what it names
					// is a root.
					var n ast.Node = s
					if d.Tok == token.VAR {
						for _, v := range s.Values {
							g.initRefs = append(g.initRefs, refs(v)...)
						}
						n = s.Type
						if s.Type == nil {
							n = s.Names[0]
						}
					}
					for _, id := range s.Names {
						if c := add(id, id.Name, docOf(d, s.Doc), n); c != nil && d.Tok == token.CONST {
							enum = append(enum, c)
						}
					}
				}
			}
			if usesIota(info, d) {
				// An iota group is one enumeration: its values number
				// each other, so one live member keeps them all.
				for i, c := range enum {
					c.refs = append(c.refs, enum[(i+1)%len(enum)].obj)
				}
			}
		}
	}
}

// position returns where p is, with the file named relative to root.
func position(fset *token.FileSet, root string, p token.Pos) token.Position {
	pos := fset.Position(p)
	if rel, err := filepath.Rel(root, pos.Filename); err == nil {
		pos.Filename = filepath.ToSlash(rel)
	}
	return pos
}

// addFields records the unexported named fields of the struct types one
// file declares, and what the file's code does with each field it uses.
func (g *graph) addFields(fset *token.FileSet, root string, info *types.Info, f *ast.File) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if v, ok := info.Defs[id].(*types.Var); ok && !id.IsExported() && id.Name != "_" {
							g.fields[v] = &field{pos: position(fset, root, id.Pos()),
								name: n.Name.Name + "." + id.Name, kept: annotated(fl.Doc)}
						}
					}
				}
			}
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if ok && len(n.Elts) > 0 {
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := 0; i < st.NumFields(); i++ {
						g.access[st.Field(i).Origin()] |= fieldWritten
					}
				}
			}
		case *ast.MapType:
			// Hashing a struct key reads every field.
			if m, ok := info.Types[n].Type.(*types.Map); ok {
				g.readAll(m.Key())
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				g.readAll(info.Types[n.X].Type)
			}
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && v.IsField() {
				g.access[v.Origin()] |= fieldAccess(info, stack)
			}
		}
		return true
	})
}

// readAll marks every field of a struct type read.
func (g *graph) readAll(t types.Type) {
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			g.access[st.Field(i).Origin()] |= fieldRead
		}
	}
}

// fieldAccess classifies the field use at the top of stack, the path of
// nodes from the file down to the field's identifier.
func fieldAccess(info *types.Info, stack []ast.Node) uint8 {
	i := len(stack) - 2
	id := stack[i+1]
	if kv, ok := stack[i].(*ast.KeyValueExpr); ok && kv.Key == id {
		return fieldWritten
	}
	sel, ok := stack[i].(*ast.SelectorExpr)
	if !ok || sel.Sel != id {
		return fieldRead
	}
	// Climb the operand chain the field heads (x.f[k].g, *x.f, x.f.M).
	var cur ast.Expr = sel
	through := false
climb:
	for i--; ; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
			continue
		case *ast.SelectorExpr:
			if p.X == cur {
				if _, method := info.Uses[p.Sel].(*types.Func); method {
					return fieldRead | fieldWritten
				}
				cur, through = p, true
				continue
			}
		case *ast.IndexExpr:
			if p.X == cur {
				cur, through = p, true
				continue
			}
		case *ast.StarExpr:
			if p.X == cur {
				cur, through = p, true
				continue
			}
		}
		break climb
	}
	written := false
	switch p := stack[i].(type) {
	case *ast.AssignStmt:
		written = slices.Contains(p.Lhs, cur)
	case *ast.IncDecStmt:
		written = true
	case *ast.RangeStmt:
		written = p.Key == cur || p.Value == cur
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return fieldRead | fieldWritten
		}
	}
	switch {
	case written && through:
		return fieldRead | fieldWritten
	case written:
		return fieldWritten
	}
	// A read that only feeds the field itself (x.n += o.n,
	// x.s = append(x.s, v)) is no read.
	for ; i > 0; i-- {
		switch p := stack[i].(type) {
		case *ast.AssignStmt:
			if s, ok := p.Lhs[0].(*ast.SelectorExpr); ok && len(p.Lhs) == 1 && info.Uses[s.Sel] == info.Uses[sel.Sel] {
				return 0
			}
			return fieldRead
		case ast.Stmt, *ast.FuncLit:
			return fieldRead
		}
	}
	return fieldRead
}

// usesIota reports whether a const group's values count with iota.
func usesIota(info *types.Info, d *ast.GenDecl) bool {
	found := false
	if d.Tok == token.CONST {
		ast.Inspect(d, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("iota") {
				found = true
			}
			return !found
		})
	}
	return found
}

// declared maps a used object to the module declaration it stands for:
// generic instances to their origin, and nil for anything that is not a
// package-level declaration or a concrete method.
func declared(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		sig := o.Type().(*types.Signature)
		if sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				return nil
			}
			return o
		}
		if o.Parent() != nil && o.Parent() == o.Pkg().Scope() {
			return o
		}
	case *types.TypeName, *types.Const, *types.Var:
		if o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
			return o
		}
	}
	return nil
}

// docOf returns a spec's own doc comment, or its group's.
func docOf(d *ast.GenDecl, doc *ast.CommentGroup) *ast.CommentGroup {
	if doc != nil {
		return doc
	}
	return d.Doc
}

// annotated reports whether a doc comment keeps its declaration for a test.
func annotated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		if strings.HasPrefix(line, "Test oracle:") || strings.HasPrefix(line, "Test seam:") {
			return true
		}
	}
	return false
}

// recvName names a method's receiver type without its pointer or type
// parameters.
func recvName(t ast.Expr) string {
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.ParenExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return "?"
		}
	}
}

// report walks the reference graph from the roots and lists every
// declaration left unmarked and every field never read or never written.
func (g *graph) report() []string {
	live := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if _, ok := g.decls[obj]; ok && !live[obj] {
			live[obj] = true
			work = append(work, obj)
		}
	}
	for obj, d := range g.decls {
		if d.root {
			mark(obj)
		}
	}
	for _, obj := range g.initRefs {
		mark(obj)
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range g.decls[obj].refs {
			mark(r)
		}
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range g.interfaceMethods(tn) {
				mark(m)
			}
		}
	}
	type finding struct {
		pos  token.Position
		text string
	}
	var found []finding
	for obj, d := range g.decls {
		if !live[obj] && !d.annotated {
			found = append(found, finding{d.pos, d.name})
		}
	}
	for v, f := range g.fields {
		switch a := g.access[v]; {
		case f.kept:
		case a&fieldRead == 0:
			found = append(found, finding{f.pos, f.name + " (never read)"})
		case a&fieldWritten == 0:
			found = append(found, finding{f.pos, f.name + " (never written)"})
		}
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i].pos, found[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	out := make([]string, len(found))
	for i, f := range found {
		out[i] = fmt.Sprintf("%s:%d %s", f.pos.Filename, f.pos.Line, f.text)
	}
	return out
}

// interfaceMethods returns the methods of a named type (or its pointer)
// that implement a method of an interface the type satisfies.
func (g *graph) interfaceMethods(tn *types.TypeName) []types.Object {
	named, ok := tn.Type().(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return nil
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		return nil
	}
	ptr := types.NewPointer(named)
	mset := types.NewMethodSet(ptr)
	var out []types.Object
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		for _, it := range g.ifaces[m.Name()] {
			if types.Implements(named, it) || types.Implements(ptr, it) {
				out = append(out, m.(*types.Func).Origin())
				break
			}
		}
	}
	return out
}
