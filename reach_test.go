package eewa

// The reachability guard: every declaration in a non-test file under
// internal/, exported or not, must be reached from a program. Code that
// only `go test` runs belongs in a _test.go file of its package, so the
// non-test tree is exactly what the commands, the examples, the
// benchmark and the root facade run.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachExempt names the declarations under internal/ that no program
// reaches, and the struct fields there that no program writes, but
// that stay in non-test files, each with the reason. Keys are
// "<import path>.<Name>" or "<import path>.<Type>.<Method or Field>".
// An entry that a program does reach or write, or that names nothing,
// fails the guard, so the list cannot go stale.
var reachExempt = map[string]string{
	"repro/internal/deque.Deque":                   "the interface the deque tests and check's stress harness drive both implementations through",
	"repro/internal/deque.Locked":                  "the mutex-guarded oracle that deque's and check's tests compare the Chase–Lev deque against",
	"repro/internal/deque.NewLocked":               "constructs the oracle (deque.Locked)",
	"repro/internal/policy.EEWA.IgnoreMemoryBound": "the §IV-D negative control: only tests set it (TestMemBoundGolden's eewa-ignore row, TestEEWAIgnoreMemoryBoundControl), to show what planning a memory-bound workload with the CC model costs",
}

func TestInternalDeclarationsAreReached(t *testing.T) {
	mod, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	fields := mod.internalFields()
	declExempt := map[string]string{}
	for key, why := range reachExempt {
		if _, ok := fields[key]; !ok {
			declExempt[key] = why
		}
	}
	dead, stale, programs := mod.unreached(declExempt)
	unwritten, staleFields := mod.unwritten(fields, programs, reachExempt)
	for _, s := range append(stale, staleFields...) {
		t.Errorf("reachExempt: %s", s)
	}
	for _, d := range dead {
		t.Errorf("%s: no program reaches it; delete it, move it into a _test.go file of its package, or exempt it in reachExempt with a reason", d)
	}
	for _, f := range unwritten {
		t.Errorf("%s: no program writes this field, so it only ever holds its zero value; delete it, make it a constant, or exempt it in reachExempt with a reason", f)
	}
}

// modPkg is one type-checked package of the module.
type modPkg struct {
	path  string
	name  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// module is every package of the module, type-checked from the files
// go/build selects for the host's GOOS and build tags (test files
// excluded).
type module struct {
	path string
	fset *token.FileSet
	pkgs map[string]*modPkg
}

// loadModule type-checks the module rooted at root, the directory of
// this package, whose import path is the module path.
func loadModule(root string) (*module, error) {
	modPath := reflect.TypeOf(module{}).PkgPath()
	m := &module{path: modPath, fset: token.NewFileSet(), pkgs: map[string]*modPkg{}}
	bps := map[string]*build.Package{}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		bps[path] = bp
		return nil
	})
	if err != nil {
		return nil, err
	}

	std, err := stdImporter(m.fset, bps, modPath)
	if err != nil {
		return nil, err
	}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := m.pkgs[path]; ok {
			return p.types, nil
		}
		if path == modPath || strings.HasPrefix(path, modPath+"/") {
			return nil, fmt.Errorf("%s imported before it was checked", path)
		}
		return std.Import(path)
	})
	var check func(path string) error
	check = func(path string) error {
		if _, ok := m.pkgs[path]; ok {
			return nil
		}
		bp, ok := bps[path]
		if !ok {
			return fmt.Errorf("%s: no package in the module", path)
		}
		for _, dep := range bp.Imports {
			if dep == modPath || strings.HasPrefix(dep, modPath+"/") {
				if err := check(dep); err != nil {
					return err
				}
			}
		}
		p := &modPkg{path: path, name: bp.Name, info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, f := range bp.GoFiles {
			file, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, file)
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(path, m.fset, p.files, p.info)
		if err != nil {
			return err
		}
		p.types = tp
		m.pkgs[path] = p
		return nil
	}
	for path := range bps {
		if err := check(path); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// stdImporter imports the standard library from the export data the
// go command builds anyway, found with one `go list -export` over the
// module's standard imports. Type-checking the standard library from
// source instead costs seconds of CPU, which the timing-sensitive tests
// of the packages `go test ./...` runs alongside this one would feel.
func stdImporter(fset *token.FileSet, bps map[string]*build.Package, modPath string) (types.Importer, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	seen := map[string]bool{}
	for _, bp := range bps {
		for _, path := range bp.Imports {
			if !seen[path] && path != modPath && !strings.HasPrefix(path, modPath+"/") {
				seen[path] = true
				args = append(args, path)
			}
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// decl is one package-level declaration (or method) with the package
// whose Info resolves the identifiers inside it.
type decl struct {
	node ast.Node
	pkg  *modPkg
}

// unreached walks the module from its roots — every declaration of a
// main package, the root package's exported API (with the methods of
// every type it re-exports by alias), package-level var initializers
// and init functions — and returns the declarations under internal/ it
// never reaches, exemptions that are reached anyway or name nothing,
// and the code the roots reach (the roots included, exemptions not).
func (m *module) unreached(exempt map[string]string) (dead, stale []string, programs []decl) {
	decls := map[types.Object]decl{}
	keys := map[string]types.Object{}
	var initRoots []decl
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						initRoots = append(initRoots, decl{d, p})
						continue
					}
					if obj := p.info.Defs[d.Name]; obj != nil {
						decls[obj] = decl{d, p}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[p.info.Defs[s.Name]] = decl{s, p}
						case *ast.ValueSpec:
							// A blank var is a compile-time assertion
							// (var _ I = (*T)(nil)), not a use.
							named := false
							for _, n := range s.Names {
								if obj := p.info.Defs[n]; obj != nil && n.Name != "_" {
									decls[obj] = decl{s, p}
									named = true
								}
							}
							if named {
								for _, v := range s.Values {
									initRoots = append(initRoots, decl{v, p})
								}
							}
						}
					}
				}
			}
		}
	}
	for obj := range decls {
		keys[objKey(obj)] = obj
	}

	ifaceNames := m.interfaceMethodNames()
	reached := map[types.Object]bool{}
	var work []decl
	var mark func(obj types.Object)
	mark = func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj == nil || obj.Pkg() == nil || reached[obj] {
			return
		}
		if _, ours := m.pkgs[obj.Pkg().Path()]; !ours {
			return
		}
		reached[obj] = true
		if d, ok := decls[obj]; ok {
			work = append(work, d)
		}
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if meth := named.Method(i); ifaceNames[meth.Name()] {
						mark(meth)
					}
				}
			}
		}
	}
	walk := func() {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			ast.Inspect(d.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := d.pkg.info.Uses[id]; obj != nil {
						mark(obj)
					}
				}
				return true
			})
		}
	}

	work = append(work, initRoots...)
	for obj, d := range decls {
		switch {
		case d.pkg.name == "main":
			mark(obj)
		case d.pkg.path == m.path && obj.Exported():
			mark(obj)
			if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					mark(named.Obj())
					for i := 0; i < named.NumMethods(); i++ {
						if meth := named.Method(i); meth.Exported() {
							mark(meth)
						}
					}
				}
			}
		}
	}
	walk()

	fromPrograms := make(map[types.Object]bool, len(reached))
	programs = append(programs, initRoots...)
	for obj := range reached {
		fromPrograms[obj] = true
		if d, ok := decls[obj]; ok {
			programs = append(programs, d)
		}
	}
	for key := range exempt {
		obj, ok := keys[key]
		switch {
		case !ok:
			stale = append(stale, key+" names no declaration")
		case fromPrograms[obj]:
			stale = append(stale, key+" is reached by a program and needs no exemption")
		default:
			mark(obj)
		}
	}
	walk()
	sort.Strings(stale)

	internal := m.path + "/internal/"
	for obj := range decls {
		if reached[obj] || !strings.HasPrefix(obj.Pkg().Path(), internal) {
			continue
		}
		dead = append(dead, fmt.Sprintf("%s: %s", m.fset.Position(obj.Pos()), objKey(obj)))
	}
	sort.Strings(dead)
	return dead, stale, programs
}

// internalFields returns, by reachExempt key ("<import path>.<Type>.<Field>"),
// every exported, named field of a struct type declared in a non-test
// file under internal/ that no json tag names: decoding writes those.
// An embedded field is left out; the fields and methods it promotes
// are what its users touch.
func (m *module) internalFields() map[string]*types.Var {
	fields := map[string]*types.Var{}
	internal := m.path + "/internal/"
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.path, internal) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, s := range gd.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					ast.Inspect(ts.Type, func(n ast.Node) bool {
						st, ok := n.(*ast.StructType)
						if !ok {
							return true
						}
						for _, fl := range st.Fields.List {
							if fl.Tag != nil {
								tag, err := strconv.Unquote(fl.Tag.Value)
								if json, ok := reflect.StructTag(tag).Lookup("json"); err == nil && ok && json != "-" {
									continue
								}
							}
							for _, name := range fl.Names {
								if v, ok := p.info.Defs[name].(*types.Var); ok && v.IsField() && v.Exported() {
									fields[p.path+"."+ts.Name.Name+"."+v.Name()] = v
								}
							}
						}
						return true
					})
				}
			}
		}
	}
	return fields
}

// unwritten returns the fields no code in programs writes, plus
// exemptions that name a field a program writes. A write is a keyed or
// positional composite-literal element, an assignment, ++/-- or range
// target, or taking the field's address; the field counts as written
// through any selector, index or dereference that an assigned
// expression goes through (p.Cfg.Cores = 3 writes Cfg too).
func (m *module) unwritten(fields map[string]*types.Var, programs []decl, exempt map[string]string) (dead, stale []string) {
	written := map[*types.Var]bool{}
	for _, d := range programs {
		fieldWrites(d.node, d.pkg.info, written)
	}
	for key, v := range fields {
		_, exempted := exempt[key]
		switch {
		case exempted && written[v]:
			stale = append(stale, key+" is written by a program and needs no exemption")
		case !exempted && !written[v]:
			dead = append(dead, fmt.Sprintf("%s: %s", m.fset.Position(v.Pos()), key))
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale
}

// fieldWrites adds to written every struct field node writes.
func fieldWrites(node ast.Node, info *types.Info, written map[*types.Var]bool) {
	target := func(e ast.Expr) {
		for e != nil {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					written[sel.Obj().(*types.Var).Origin()] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				target(e)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				target(n.Key)
				target(n.Value)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, _ := t.Underlying().(*types.Struct)
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							written[v.Origin()] = true
						}
					}
				} else if st != nil {
					written[st.Field(i).Origin()] = true
				}
			}
		}
		return true
	})
}

// interfaceMethodNames returns the method names of every interface the
// module declares or spells out, of every interface type exported by a
// standard-library package the module imports, and of error. A method
// of a reached type with one of these names is reached: a call through
// the interface may dispatch to it.
func (m *module) interfaceMethodNames() map[string]bool {
	names := map[string]bool{"Error": true}
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			names[it.Method(i).Name()] = true
		}
	}
	std := map[*types.Package]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if t, ok := p.info.Types[it].Type.(*types.Interface); ok {
						addIface(t)
					}
				}
				return true
			})
		}
		for _, imp := range p.types.Imports() {
			if _, ours := m.pkgs[imp.Path()]; !ours {
				std[imp] = true
			}
		}
	}
	for pkg := range std {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
	}
	return names
}

// objKey names a declaration as reachExempt does.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := types.Unalias(t).(*types.Named); ok {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
