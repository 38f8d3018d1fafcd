package lumina_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// callerlessAllowed lists the names under internal/ that no non-test
// code calls and that stay anyway, each with the seam that keeps it.
// The list is exact: a listed name that gains a caller fails the test
// as surely as an unlisted callerless name does.
var callerlessAllowed = map[string]string{
	"sim.Simulator.At":         "test sugar: tests schedule closures without declaring a Handler",
	"sim.PoisonReleasedFrames": "test seam: corpus's poison test overwrites released frames to catch use-after-release",
	"perfgate.Check":           "CI perf gate: TestPerfBudgets judges the budgets through it",
	"perfgate.MeasureAll":      "CI perf gate: TestPerfBudgets measures every workload through it",
	"packet.ECNECT1":           "spec enumeration: the ECN codepoint the model never sends",
	"packet.SyndromeNakBase":   "spec enumeration: the NAK syndrome class",
	"packet.NakRemoteOpErr":    "spec enumeration: the NAK code no model raises",
	"packet.NakInvalidRDReq":   "spec enumeration: the NAK code no model raises",
	"inband.Collector.Stamps":  "oracle: orchestrator's joinEveryTransit, the reference TestJoinMatchesIndexEverythingJoin holds Join to, reads the whole stamp log, which no production path hands out",
}

// TestExportedNamesHaveCallers holds every function, method, type,
// constant and untagged struct field declared under internal/ to a
// caller in non-test code somewhere in the module: a name is used when
// code outside internal/, a package-level variable or init function,
// or a used name refers to it. Callerless API gets deleted, or moved
// into a _test.go file of its package when only that package's tests
// read it.
func TestExportedNamesHaveCallers(t *testing.T) {
	start := time.Now()
	dead, err := callerless(".", callerlessAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dead {
		if callerlessAllowed[name] == "" {
			t.Errorf("%s has no caller outside tests: delete it, move it into a _test.go file of its package, or allow it here with the seam that keeps it", name)
		}
	}
	for name := range callerlessAllowed {
		if !slices.Contains(dead, name) {
			t.Errorf("%s is allowed as callerless but is not: it has a caller now, or it is gone; take it off the list", name)
		}
	}
	t.Logf("census: %d callerless name(s) in %v", len(dead), time.Since(start).Round(time.Millisecond))
}

// TestCallerlessCensus runs the census over small hand-written modules
// whose answers are spelled out.
func TestCallerlessCensus(t *testing.T) {
	const gomod = "module example.com/m\n\ngo 1.22\n"
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  []string
	}{{
		name: "an exported function with no caller is reported",
		files: map[string]string{
			"internal/a/a.go": `package a
func Used() int   { return 1 }
func Unused() int { return 2 }`,
			"main.go": `package main
import "example.com/m/internal/a"
func main() { println(a.Used()) }`,
		},
		want: []string{"a.Unused"},
	}, {
		name: "methods an interface conversion requires are not reported",
		files: map[string]string{
			"internal/sim/sim.go": `package sim
type Handler interface{ HandleEvent(at int64) }
func Schedule(h Handler) { h.HandleEvent(0) }`,
			"internal/a/a.go": `package a
import "example.com/m/internal/sim"
type T struct{}
func (*T) HandleEvent(int64) {}
func (T) Error() string      { return "t" }
func (T) String() string     { return "t" }
func Run() error             { sim.Schedule(&T{}); return T{} }`,
			"main.go": `package main
import ("fmt"; "example.com/m/internal/a")
func main() { fmt.Println(a.Run()) }`,
		},
		want: nil,
	}, {
		name: "a name read only from a _test.go file is reported",
		files: map[string]string{
			"internal/a/a.go": `package a
type T struct{ n int }
func New() *T           { return &T{n: 1} }
func (t *T) Len() int   { return t.n }`,
			"internal/a/a_test.go": `package a
import "testing"
func TestLen(t *testing.T) { _ = New().Len() }`,
			"main.go": `package main
import "example.com/m/internal/a"
func main() { _ = a.New() }`,
		},
		want: []string{"a.T.Len"},
	}, {
		name: "a name called only by a callerless name is reported",
		files: map[string]string{
			"internal/a/a.go": `package a
const base = 3
func Dead() int    { return helper() }
func helper() int  { return base }
func Live() int    { return 1 }`,
			"cmd/m/main.go": `package main
import "example.com/m/internal/a"
func main() { println(a.Live()) }`,
		},
		want: []string{"a.Dead", "a.base", "a.helper"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			tc.files["go.mod"] = gomod
			for name, src := range tc.files {
				file := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, err := callerless(root, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("callerless = %q, want %q", got, tc.want)
			}
		})
	}
}

// stdImporter type-checks the standard library from source, once per
// test binary; the module's own packages are checked by callerless.
var stdImporter = sync.OnceValues(func() (*token.FileSet, types.Importer) {
	build.Default.CgoEnabled = false // pure-Go net and os/user: no cgo run
	fset := token.NewFileSet()
	return fset, importer.ForCompiler(fset, "source", nil)
})

// modulePackage is one type-checked package of the module.
type modulePackage struct {
	path  string
	files []*ast.File
	deps  []string // the module packages it imports
	info  *types.Info
}

// loadModule parses the non-test Go files of every package of the
// module rooted at root, as go/build selects them for this platform,
// and type-checks each against the packages it imports. It returns the
// module path and the packages sorted by import path.
func loadModule(root string) (string, []*modulePackage, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", nil, err
	}
	modPath, _, _ := strings.Cut(strings.TrimPrefix(string(gomod), "module "), "\n")
	fset, std := stdImporter()

	byPath := map[string]*modulePackage{}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) || err == nil && len(bp.GoFiles) == 0 {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		p := &modulePackage{path: path.Join(modPath, filepath.ToSlash(rel))}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		for _, imp := range bp.Imports {
			if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
				p.deps = append(p.deps, imp)
			}
		}
		byPath[p.path] = p
		return nil
	})
	if err != nil {
		return "", nil, err
	}

	// Check each package after the module packages it imports, against
	// their checked types: the source importer would check them afresh,
	// and uses resolved to those copies match no declaration here.
	checked := map[string]*types.Package{}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p := checked[path]; p != nil {
				return p, nil
			}
			if byPath[path] != nil {
				return nil, fmt.Errorf("%s imported before it was checked: import cycle", path)
			}
			return std.Import(path)
		}),
		Sizes: types.SizesFor("gc", build.Default.GOARCH),
	}
	var check func(path string) error
	check = func(path string) error {
		p := byPath[path]
		if p == nil {
			return fmt.Errorf("package %s not found in the module", path)
		}
		if checked[path] != nil {
			return nil
		}
		for _, dep := range p.deps {
			if err := check(dep); err != nil {
				return err
			}
		}
		p.info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		tp, err := conf.Check(path, fset, p.files, p.info)
		checked[path] = tp
		return err
	}
	pkgs := make([]*modulePackage, 0, len(byPath))
	for _, p := range byPath {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].path < pkgs[j].path })
	for _, p := range pkgs {
		if err := check(p.path); err != nil {
			return "", nil, err
		}
	}
	return modPath, pkgs, nil
}

// callerless returns the sorted names declared under the internal/ of
// the module rooted at root that no used non-test code refers to, as
// "pkg.Name" or "pkg.Type.Member", pkg being the package's path below
// internal/. Code outside internal/, package variables and init
// functions are used; so is whatever a used name or a seam refers to,
// but a seam is reported unless used code refers to it. A method counts
// as referred to by its receiver type when it completes an interface
// the module mentions, or fmt.Stringer, which fmt asserts.
func callerless(root string, seams map[string]string) ([]string, error) {
	modPath, pkgs, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	_, std := stdImporter()

	// Nodes are the names the census judges; edges run from the
	// declaration a reference sits in to the name it refers to.
	internal := modPath + "/internal/"
	judged := func(obj types.Object) bool {
		return obj != nil && obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path()+"/", internal)
	}
	nodes := map[types.Object]string{}         // the name the census reports
	edges := map[types.Object][]types.Object{} // nil key: the roots
	var named []*types.TypeName
	ifaces := []*types.Interface{}
	seen := map[types.Type]bool{}
	var collect func(types.Type)
	collect = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Named:
			if it, ok := u.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		case *types.Interface:
			if u.NumMethods() > 0 {
				ifaces = append(ifaces, u)
			}
		case *types.Pointer:
			collect(u.Elem())
		case *types.Slice:
			collect(u.Elem())
		case *types.Array:
			collect(u.Elem())
		case *types.Map:
			collect(u.Key())
			collect(u.Elem())
		case *types.Chan:
			collect(u.Elem())
		case *types.Signature:
			for i := 0; i < u.Params().Len(); i++ {
				collect(u.Params().At(i).Type())
			}
			for i := 0; i < u.Results().Len(); i++ {
				collect(u.Results().At(i).Type())
			}
		}
	}
	fmtPkg, err := std.Import("fmt")
	if err != nil {
		return nil, err
	}
	collect(fmtPkg.Scope().Lookup("Stringer").Type())
	collect(types.Universe.Lookup("error").Type())

	for _, p := range pkgs {
		info, isInternal := p.info, strings.HasPrefix(p.path+"/", internal)
		for _, tv := range info.Types {
			collect(tv.Type)
		}
		for _, obj := range info.Uses {
			collect(obj.Type())
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var users []types.Object // nil: a root
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := info.Defs[d.Name].(*types.Func)
					recv := fn.Type().(*types.Signature).Recv()
					if isInternal && (recv != nil || d.Name.Name != "init") {
						users = []types.Object{fn}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							tn := info.Defs[s.Name].(*types.TypeName)
							if isInternal {
								users = append(users, tn)
								named = append(named, tn)
								if st, ok := tn.Type().Underlying().(*types.Struct); ok && tn.Type() != tn.Type().Underlying() {
									for i := 0; i < st.NumFields(); i++ {
										if fld := st.Field(i); !fld.Embedded() && st.Tag(i) == "" {
											nodes[fld] = censusName(tn, internal) + "." + fld.Name()
											edges[fld] = append(edges[fld], tn)
										}
									}
								}
							}
						case *ast.ValueSpec:
							if isInternal && d.Tok == token.CONST {
								for _, id := range s.Names {
									c := info.Defs[id]
									users = append(users, c)
									if n, ok := c.Type().(*types.Named); ok {
										edges[c] = append(edges[c], n.Obj())
									}
								}
							}
						}
					}
				}
				for _, u := range users {
					if u.Name() != "_" {
						nodes[u] = censusName(u, internal)
					}
				}
				use := func(obj types.Object) {
					if !judged(obj) {
						return
					}
					if users == nil {
						edges[nil] = append(edges[nil], obj)
					}
					for _, u := range users {
						if u != obj {
							edges[u] = append(edges[u], obj)
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						switch o := info.Uses[n].(type) {
						case *types.Func:
							use(o.Origin())
						case *types.Var:
							use(o.Origin())
						case types.Object:
							use(o)
						}
					case *ast.CompositeLit:
						// An unkeyed struct literal names no field but sets them all.
						st, ok := info.Types[n].Type.Underlying().(*types.Struct)
						if ok && len(n.Elts) > 0 {
							if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
								for i := 0; i < st.NumFields(); i++ {
									use(st.Field(i))
								}
							}
						}
					}
					return true
				})
			}
		}
	}

	// A used type uses the methods that complete an interface it
	// implements.
	for _, tn := range named {
		t, ok := tn.Type().(*types.Named)
		if !ok || t.TypeParams().Len() > 0 || types.IsInterface(t) {
			continue
		}
		ptr := types.NewPointer(t)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok && judged(fn) {
					edges[tn] = append(edges[tn], fn.Origin())
				}
			}
		}
	}

	// Reach from the roots, then on from the seams, which are used
	// whatever they call; a seam itself is callerless unless the roots
	// reach it.
	live := map[types.Object]bool{}
	reach := func(queue ...types.Object) {
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range edges[u] {
				if !live[v] {
					live[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	reach(nil)
	var dead []string
	var seamObjs []types.Object
	for obj, name := range nodes {
		if seams[name] != "" {
			seamObjs = append(seamObjs, obj)
			if !live[obj] {
				dead = append(dead, name)
			}
		}
	}
	reach(seamObjs...)
	for obj, name := range nodes {
		if !live[obj] && seams[name] == "" {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// censusName spells obj as its package path below internal/, then its
// receiver type when it is a method, then its name.
func censusName(obj types.Object, internal string) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			name = t.(*types.Named).Obj().Name() + "." + name
		}
	}
	return strings.TrimPrefix(obj.Pkg().Path(), internal) + "." + name
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
