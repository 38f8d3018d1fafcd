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
			got, err := callerless(writeModule(t, tc.files), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("callerless = %q, want %q", got, tc.want)
			}
		})
	}
}

// writeModule writes files, keyed by slash-separated path, into a new
// module example.com/m and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module example.com/m\n\ngo 1.22\n"
	for name, src := range files {
		file := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// stdImporter type-checks the standard library from source, once per
// test binary; the module's own packages are checked by checkModule.
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

// module is a type-checked module: its path and its packages sorted by
// import path.
type module struct {
	path string
	pkgs []*modulePackage
}

var modules sync.Map // root -> func() (*module, error)

// loadModule type-checks the module rooted at root once per test
// binary, however many censuses judge it.
func loadModule(root string) (*module, error) {
	load, _ := modules.LoadOrStore(root, sync.OnceValues(func() (*module, error) { return checkModule(root) }))
	return load.(func() (*module, error))()
}

// checkModule parses the non-test Go files of every package of the
// module rooted at root, as go/build selects them for this platform,
// and type-checks each against the packages it imports.
func checkModule(root string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
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
		return nil, err
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
			return nil, err
		}
	}
	return &module{modPath, pkgs}, nil
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
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	modPath, pkgs := m.path, m.pkgs
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

// fieldsAllowed lists the struct fields under internal/ that non-test
// code does not both write and read and that stay anyway, each with the
// seam that keeps it. The list is exact, as callerlessAllowed is.
var fieldsAllowed = map[string]string{
	"fuzz.Options.CoverageObserve": "the blind arm: only coverage_test.go sets it, to measure the fuzzer with coverage observed but not steering",
	"rnic.WorkRequest.Imm":         "IB verb API: only rnic's transport tests post a Write-with-immediate",
	"rnic.WorkRequest.UseImm":      "IB verb API: only rnic's transport tests post a Write-with-immediate",
	"rnic.RecvRequest.OnComplete":  "IB verb API: only rnic's transport tests post a receive with a completion callback",
	"rnic.Completion.HasImm":       "IB verb API: only rnic's transport tests read a Write-with-immediate's completion",
	"rnic.Completion.Imm":          "IB verb API: only rnic's transport tests read a Write-with-immediate's completion",
	"orchestrator.Testbed.Fabric":  "the frozen bench/ reads it: always nil since one event loop replaced the shards",
	"orchestrator.Options.Shards":  "the frozen bench/ sets it: ignored since one event loop replaced the shards",
	"injector.ConnMeta.RespIPSN":   "the frozen bench/ sets it when it registers a synthetic connection",
	"serve.Config.Run":             "test seam: serve's tests substitute a fake run",
	"engine.PanicError.Stack":      "evidence kept from a fault: the stack of a job that panicked",
	"packet.IPv4.Checksum":         "decoded wire field: the header checksum as it arrived",
	"packet.Packet.ICRC":           "decoded wire field: the invariant CRC as it arrived",
	"trace.PcapPacket.OrigLen":     "pcap record header: the round-trip tests read it",
	"trace.PcapPacket.TimestampNs": "pcap record header: the round-trip tests read it",
}

// TestFieldsAreWrittenAndRead holds every untagged, non-embedded field
// of a struct declared under internal/ to a write and a read in non-test
// code somewhere in the module. A knob only tests set, or state nothing
// reads, gets deleted.
func TestFieldsAreWrittenAndRead(t *testing.T) {
	start := time.Now()
	writerless, readerless, err := fieldCensus(".")
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, name := range writerless {
		flagged[name] = true
		if fieldsAllowed[name] == "" {
			t.Errorf("%s is never set outside tests: delete it, or allow it here with the seam that keeps it", name)
		}
	}
	for _, name := range readerless {
		flagged[name] = true
		if fieldsAllowed[name] == "" {
			t.Errorf("%s is never read outside tests: delete it, or allow it here with the seam that keeps it", name)
		}
	}
	for name := range fieldsAllowed {
		if !flagged[name] {
			t.Errorf("%s is allowed but non-test code both writes and reads it now, or it is gone; take it off the list", name)
		}
	}
	t.Logf("field census: %d writerless, %d readerless in %v", len(writerless), len(readerless), time.Since(start).Round(time.Millisecond))
}

// TestFieldCensus runs the field census over small hand-written modules
// whose answers are spelled out.
func TestFieldCensus(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		files                  map[string]string
		writerless, readerless []string
	}{{
		name: "a field set only from a _test.go file is writerless",
		files: map[string]string{
			"internal/a/a.go": `package a
type Options struct{ Limit, Hook int }
func Run(o Options) int { return o.Limit + o.Hook }`,
			"internal/a/a_test.go": `package a
import "testing"
func TestHook(t *testing.T) { _ = Run(Options{Hook: 1}) }`,
			"main.go": `package main
import "example.com/m/internal/a"
func main() { println(a.Run(a.Options{Limit: 2})) }`,
		},
		writerless: []string{"a.Options.Hook"},
	}, {
		name: "a field written but never read is readerless",
		files: map[string]string{
			"internal/a/a.go": `package a
type T struct{ n, seen int }
func (t *T) Add() int { t.seen = 1; t.n += 2; return t.n }`,
			"main.go": `package main
import "example.com/m/internal/a"
func main() { var t a.T; println(t.Add()) }`,
		},
		readerless: []string{"a.T.seen"},
	}, {
		name: "an op-assignment and ++ write but do not read",
		files: map[string]string{
			"internal/a/a.go": `package a
type T struct{ hits, bytes int }
func (t *T) Count(n int) { t.hits++; t.bytes += n }`,
			"main.go": `package main
import "example.com/m/internal/a"
func main() { var t a.T; t.Count(1) }`,
		},
		readerless: []string{"a.T.bytes", "a.T.hits"},
	}, {
		name: "an unkeyed literal, &x.F, x.F++ and a pointer method on x.F write",
		files: map[string]string{
			"internal/a/a.go": `package a
type Pair struct{ X, Y int }
type buf struct{ b []byte }
func (b *buf) Put(c byte) { b.b = append(b.b, c) }
type T struct{ n, m int; p Pair; w buf }
func (t *T) Bump() *int { t.n++; t.w.Put(1); return &t.m }
func (t *T) Sum() int   { return t.n + t.m + t.p.X + t.p.Y + len(t.w.b) }
func New() *T           { return &T{p: Pair{1, 2}} }`,
			"main.go": `package main
import "example.com/m/internal/a"
func main() { t := a.New(); *t.Bump() = 1; println(t.Sum()) }`,
		},
	}, {
		name: "a pointer method on x.F and &x.F hand out the field, so they read it too",
		files: map[string]string{
			"internal/a/a.go": `package a
import ("sync"; "sync/atomic")
type T struct{ mu sync.Mutex; n int; hits int64 }
func (t *T) Add() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	atomic.AddInt64(&t.hits, 1)
	t.n++
	return t.n
}`,
			"main.go": `package main
import "example.com/m/internal/a"
func main() { var t a.T; println(t.Add()) }`,
		},
	}, {
		name: "every field of a map-key or compared struct is read",
		files: map[string]string{
			"internal/a/a.go": `package a
type key struct{ src, dst int }
type span struct{ lo, hi int }
type T struct{ seen map[key]bool; last span }
func (t *T) Mark(s, d int) bool {
	k := key{src: s, dst: d}
	ok := t.seen[k]
	t.seen[k] = true
	return ok || t.last == span{lo: s, hi: d}
}
func New() *T { return &T{seen: map[key]bool{}} }`,
			"main.go": `package main
import "example.com/m/internal/a"
func main() { println(a.New().Mark(1, 2)) }`,
		},
		writerless: []string{"a.T.last"},
	}, {
		name: "a write from a main package outside internal/ counts",
		files: map[string]string{
			"internal/a/a.go": `package a
type Config struct{ Seed int }
func Run(c *Config) int { return c.Seed }`,
			"cmd/m/main.go": `package main
import "example.com/m/internal/a"
func main() { var c a.Config; c.Seed = 7; println(a.Run(&c)) }`,
		},
	}, {
		name: "a write through a pointer field reads the pointer",
		files: map[string]string{
			"internal/a/a.go": `package a
type NIC struct{ Slow int }
var nic NIC
func Run() int { return nic.Slow }
type Pair struct{ Req *NIC }
func New() *Pair { return &Pair{Req: &nic} }`,
			"main.go": `package main
import "example.com/m/internal/a"
func main() { a.New().Req.Slow = 3; println(a.Run()) }`,
		},
	}, {
		name: "a write to a package-qualified variable is no field write",
		files: map[string]string{
			"internal/a/a.go": `package a
var Rate, Hits int
type T struct{ Rate int }
func (t T) Get() int { return t.Rate + Rate + Hits }`,
			"main.go": `package main
import "example.com/m/internal/a"
func main() { a.Rate = 1; a.Hits++; println(a.T{Rate: 2}.Get()) }`,
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			writerless, readerless, err := fieldCensus(writeModule(t, tc.files))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(writerless, tc.writerless) || !reflect.DeepEqual(readerless, tc.readerless) {
				t.Fatalf("writerless = %q, readerless = %q; want %q and %q", writerless, readerless, tc.writerless, tc.readerless)
			}
		})
	}
}

// fieldCensus returns, sorted, the untagged, non-embedded fields of the
// package-level structs declared under the internal/ of the module
// rooted at root that no non-test code writes, and those that no
// non-test code reads, spelled as callerless spells a field.
//
// A write is a key of a keyed struct literal; any unkeyed literal of the
// struct; an assignment, op-assignment or ++/-- whose left-hand selector
// chain holds the field; &x.F; or a pointer-receiver method called on x.F.
// The last two hand out the field's address, so they read it as well.
// Any other selector use reads, and so does every field of a struct type
// used as a map key or compared with == or !=.
func fieldCensus(root string) (writerless, readerless []string, err error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, nil, err
	}
	internal := m.path + "/internal/"
	judged := map[*types.Var]string{}
	written, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	field := func(obj types.Object) *types.Var {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	// readAll reads every field of a struct whose values are compared,
	// through the structs and arrays it holds.
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); !read[f.Origin()] {
					read[f.Origin()] = true
					readAll(f.Type())
				}
			}
		case *types.Array:
			readAll(u.Elem())
		}
	}

	for _, p := range m.pkgs {
		info := p.info
		for _, f := range p.files {
			if strings.HasPrefix(p.path+"/", internal) {
				for _, decl := range f.Decls {
					d, ok := decl.(*ast.GenDecl)
					if !ok {
						continue
					}
					for _, spec := range d.Specs {
						s, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						tn := info.Defs[s.Name].(*types.TypeName)
						if st, ok := tn.Type().Underlying().(*types.Struct); ok && tn.Type() != st {
							for i := 0; i < st.NumFields(); i++ {
								if fld := st.Field(i); !fld.Embedded() && st.Tag(i) == "" {
									judged[fld] = censusName(tn, internal) + "." + fld.Name()
								}
							}
						}
					}
				}
			}

			// First the selectors that write, then every other selector reads.
			writes := map[*ast.SelectorExpr]bool{} // true: the write reads as well
			chain := func(e ast.Expr, reads bool) {
				for {
					switch x := e.(type) {
					case *ast.ParenExpr:
						e = x.X
					case *ast.IndexExpr:
						e = x.X
					case *ast.SelectorExpr:
						if id, ok := x.X.(*ast.Ident); ok {
							if _, pkg := info.Uses[id].(*types.PkgName); pkg {
								return // pkg.V is a variable, not a field, and pkg has no type
							}
						}
						writes[x] = writes[x] || reads
						if _, ptr := info.Types[x.X].Type.Underlying().(*types.Pointer); ptr {
							return // the write lands behind a pointer the rest of the chain reads
						}
						e = x.X
					default:
						return
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						chain(lhs, false)
					}
				case *ast.IncDecStmt:
					chain(n.X, false)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						chain(n.X, true)
					}
				case *ast.SelectorExpr:
					// A pointer method called on a non-pointer x.F takes &x.F.
					fn, ok := info.Uses[n.Sel].(*types.Func)
					if !ok || fn.Type().(*types.Signature).Recv() == nil {
						break
					}
					_, ptrRecv := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer)
					_, ptrX := info.Types[n.X].Type.Underlying().(*types.Pointer)
					if ptrRecv && !ptrX {
						chain(n.X, true)
					}
				case *ast.CompositeLit:
					st, ok := info.Types[n].Type.Underlying().(*types.Struct)
					if !ok || len(n.Elts) == 0 {
						break
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if v := field(info.Uses[kv.Key.(*ast.Ident)]); v != nil {
								written[v] = true
							}
						}
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							written[st.Field(i).Origin()] = true
						}
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(info.Types[n.X].Type)
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if v := field(info.Uses[sel.Sel]); v != nil {
						reads, isWrite := writes[sel]
						written[v] = written[v] || isWrite
						read[v] = read[v] || !isWrite || reads
					}
				}
				return true
			})
		}
		for _, tv := range info.Types {
			if mt, ok := tv.Type.(*types.Map); ok {
				readAll(mt.Key())
			}
		}
	}
	for v, name := range judged {
		if !written[v] {
			writerless = append(writerless, name)
		}
		if !read[v] {
			readerless = append(readerless, name)
		}
	}
	sort.Strings(writerless)
	sort.Strings(readerless)
	return writerless, readerless, nil
}

// builderAllowed lists the non-test code outside internal/orchestrator
// that builds simulated hardware by hand, each with its reason. A key is
// a package's directory, or its directory and a function. The list is
// exact, as callerlessAllowed is.
var builderAllowed = map[string]string{
	"bench":                            "frozen with the benchmark: its probes time a bare port, switch and dumper (ROADMAP item 6)",
	"internal/perfgate.simEvents":      "perf gate: times the event queue alone, on a bare simulator",
	"internal/perfgate.simEventsMixed": "perf gate: times both tiers of the event queue, on a bare simulator",
	"examples/atomic_counter":          "example: drives the atomic verbs below the orchestrator, through a relay that drops one acknowledgement",
}

// TestOneWayToBuildATestbed holds what builds simulated hardware —
// sim.New, sim.Connect, rnic.New and traffic's NewPair constructors — to
// internal/orchestrator, where Build turns a scenario into a testbed,
// and forbids writing a NIC's profile through x.Prof.F anywhere: a run
// with one mechanism flipped is a scenario with a nic.profile override.
func TestOneWayToBuildATestbed(t *testing.T) {
	sites, err := builderSites(".")
	if err != nil {
		t.Fatal(err)
	}
	matched := map[string]bool{}
	for _, s := range sites {
		where, what, _ := strings.Cut(s, ": ")
		dir, _, _ := strings.Cut(where, ".")
		switch {
		case what == "writes .Prof":
			t.Errorf("%s: set the override in the scenario's nic.profile instead", s)
		case builderAllowed[where] != "":
			matched[where] = true
		case builderAllowed[dir] != "":
			matched[dir] = true
		default:
			t.Errorf("%s: build the testbed from a scenario with orchestrator.Build, or allow it here with its reason", s)
		}
	}
	for key := range builderAllowed {
		if !matched[key] {
			t.Errorf("%s is allowed to build by hand but does not: take it off the list", key)
		}
	}
}

// TestBuilderCensus runs builderSites over a small hand-written module
// whose answer is spelled out.
func TestBuilderCensus(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/sim/sim.go": `package sim
type Simulator struct{}
func New(seed int64) *Simulator { return &Simulator{} }
func Connect(s *Simulator) {}`,
		"internal/rnic/rnic.go": `package rnic
import "example.com/m/internal/sim"
type Profile struct{ AckCoalesce int }
type NIC struct{ Prof Profile }
func New(s *sim.Simulator, p Profile) *NIC { return &NIC{Prof: p} }`,
		"internal/traffic/traffic.go": `package traffic
import "example.com/m/internal/rnic"
func NewPair(a, b *rnic.NIC) {}`,
		"internal/orchestrator/build.go": `package orchestrator
import ("example.com/m/internal/rnic"; "example.com/m/internal/sim"; "example.com/m/internal/traffic")
func Build() *rnic.NIC {
	s := sim.New(1)
	prof := rnic.Profile{}
	prof.AckCoalesce = 2
	n := rnic.New(s, prof)
	sim.Connect(s)
	traffic.NewPair(n, n)
	return n
}`,
		"internal/orchestrator/build_test.go": `package orchestrator
import ("testing"; "example.com/m/internal/sim")
func TestBuild(t *testing.T) { sim.New(2); Build().Prof.AckCoalesce = 3 }`,
		"cmd/m/main.go": `package main
import ("example.com/m/internal/orchestrator"; "example.com/m/internal/rnic"; "example.com/m/internal/sim")
var s = sim.New(3)
type tool struct{}
func (tool) run() { rnic.New(s, rnic.Profile{}) }
func main() { tool{}.run(); orchestrator.Build().Prof.AckCoalesce++ }`,
	})
	got, err := builderSites(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cmd/m.main: writes .Prof", "cmd/m.tool.run: rnic.New", "cmd/m.var: sim.New"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("builderSites = %q, want %q", got, want)
	}
}

// builderSites returns, sorted and each once, the places in the non-test
// code of the module rooted at root that build simulated hardware
// outside internal/orchestrator, as "dir.func: sim.New" (dir is the
// package's directory, func the enclosing function, method as
// Type.method, or var for a package-level initializer), and the places
// anywhere that assign through a selector naming a field Prof, as
// "dir.func: writes .Prof".
func builderSites(root string) ([]string, error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	builders := map[string]bool{
		m.path + "/internal/sim.New":     true,
		m.path + "/internal/sim.Connect": true,
		m.path + "/internal/rnic.New":    true,
	}
	set := map[string]bool{}
	for _, p := range m.pkgs {
		dir := strings.TrimPrefix(strings.TrimPrefix(p.path, m.path), "/")
		if dir == "" {
			dir = "."
		}
		builds := dir != "internal/orchestrator"
		for _, f := range p.files {
			for _, decl := range f.Decls {
				where := dir + ".var"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					where = dir + "." + fd.Name.Name
					if fd.Recv != nil {
						recv := fd.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if id, ok := recv.(*ast.Ident); ok {
							where = dir + "." + id.Name + "." + fd.Name.Name
						}
					}
				}
				// writesProf reports whether an assigned expression's
				// selector chain passes through a field named Prof.
				writesProf := func(e ast.Expr) bool {
					for {
						switch x := e.(type) {
						case *ast.ParenExpr:
							e = x.X
						case *ast.IndexExpr:
							e = x.X
						case *ast.SelectorExpr:
							if v, ok := p.info.Uses[x.Sel].(*types.Var); ok && v.IsField() && v.Name() == "Prof" {
								return true
							}
							e = x.X
						default:
							return false
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						var id *ast.Ident
						switch fn := n.Fun.(type) {
						case *ast.Ident:
							id = fn
						case *ast.SelectorExpr:
							id = fn.Sel
						}
						if fn, ok := p.info.Uses[id].(*types.Func); builds && ok && fn.Pkg() != nil {
							name := fn.Pkg().Path() + "." + fn.Name()
							if builders[name] || fn.Pkg().Path() == m.path+"/internal/traffic" && strings.HasPrefix(fn.Name(), "NewPair") {
								set[where+": "+fn.Pkg().Name()+"."+fn.Name()] = true
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if writesProf(lhs) {
								set[where+": writes .Prof"] = true
							}
						}
					case *ast.IncDecStmt:
						if writesProf(n.X) {
							set[where+": writes .Prof"] = true
						}
					}
					return true
				})
			}
		}
	}
	sites := make([]string, 0, len(set))
	for s := range set {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	return sites, nil
}
