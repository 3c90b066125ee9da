package core_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestExactFlagStaysInExpiry keeps the legacy/exact difference behind its one
// seam (DESIGN.md §4): outside tests, the package reads JoinOp.exact only in
// expiry.go, and there at most six times besides SetExact's write. A seventh
// site means a new question for expiry.go to answer by name, not a new read.
func TestExactFlagStaysInExpiry(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	reads := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "SetExact" {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "exact" {
					reads++
					if name != "expiry.go" {
						t.Errorf("%s reads .exact outside expiry.go", fset.Position(sel.Pos()))
					}
				}
				return true
			})
		}
	}
	if reads == 0 || reads > 6 {
		t.Errorf(".exact is read at %d sites, want 1..6, all in expiry.go", reads)
	}
}
