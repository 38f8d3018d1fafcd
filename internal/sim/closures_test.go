package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoClosureEvents keeps production code on typed events: no non-test
// file under internal/ or cmd/ may pass a function literal (directly or
// through a local variable bound to one) as the last argument of an At
// or After call, and none outside this package may name sim.Func. A
// closure is a pending event no census, reference diff or port lane can
// inspect; At, After and Func are sugar for tests.
func TestNoClosureEvents(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	for _, root := range []string{"..", filepath.Join("..", "..", "cmd")} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			files++
			inSim := filepath.Base(filepath.Dir(path)) == "sim" && filepath.Base(filepath.Dir(filepath.Dir(path))) == "internal"
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if ok && (sel.Sel.Name == "At" || sel.Sel.Name == "After") && len(n.Args) > 0 && isClosure(n.Args[len(n.Args)-1]) {
						t.Errorf("%s: %s schedules a closure; schedule a typed event with %sEvent", fset.Position(n.Pos()), sel.Sel.Name, sel.Sel.Name)
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "sim" && n.Sel.Name == "Func" && !inSim {
						t.Errorf("%s: sim.Func outside package sim", fset.Position(n.Pos()))
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("the walk is broken: %d files parsed", files)
	}
}

// isClosure reports whether e is a function literal, or a local name the
// parser resolved to a declaration that binds one.
func isClosure(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.FuncLit:
		return true
	case *ast.Ident:
		if e.Obj == nil {
			return false
		}
		switch d := e.Obj.Decl.(type) {
		case *ast.AssignStmt:
			for i, lhs := range d.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Obj == e.Obj && i < len(d.Rhs) {
					return isClosure(d.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range d.Names {
				if name.Obj == e.Obj && i < len(d.Values) {
					return isClosure(d.Values[i])
				}
			}
		}
	}
	return false
}
