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

// TestSignatureMatchesAreCharged keeps the cost model honest about signature
// work (DESIGN.md §3): outside tests, core and feedback test a signature
// against a composite — Signature.MatchedBy — only at the sites listed here,
// and at each an earlier statement of an enclosing block adds the
// signature's length to a comparison count that ends up in
// Counters.Comparisons. Everything else finds its matches through
// an index that reports its own charge (feedback's fpIndex.match) or through
// a state lookup, and core's lookups — State.WalkCarrying and State.RemoveIf,
// wherever they are called: suspension, Identify_MNS — are held to the same
// rule: an earlier statement charges the length of the bound looked up. The
// Type II test, MarkTable.Suppressing, is two index lookups that report their
// charge: core asks it in suppressor only, whose next statement adds the
// charge to Comparisons. A new call site is a new row here or, better, a
// lookup.
func TestSignatureMatchesAreCharged(t *testing.T) {
	sites := map[string]string{
		"mnsMatches": "control.go", // Type I suspension: candidates and in-flight inputs
	}
	suppressing := 0
	found := map[string]int{}
	lookups := 0
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../feedback"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
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
				if !ok || fn.Body == nil {
					continue
				}
				// stack holds the nodes from fn down to the one being visited.
				var stack []ast.Node
				ast.Inspect(fn, func(n ast.Node) bool {
					if n == nil {
						stack = stack[:len(stack)-1]
						return true
					}
					stack = append(stack, n)
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					pos := fset.Position(call.Pos())
					if dir == "." && sel.Sel.Name == "Suppressing" {
						suppressing++
						if fn.Name.Name != "suppressor" || !comparisonsChargedNext(stack) {
							t.Errorf("%s: %s asks Suppressing; only suppressor does, adding its charge to Comparisons next", pos, fn.Name.Name)
						}
						return true
					}
					if dir == "." && (sel.Sel.Name == "WalkCarrying" || sel.Sel.Name == "RemoveIf") {
						lookups++
						if !chargedBefore(stack) {
							t.Errorf("%s: no earlier `+= …len(bound)…` in an enclosing block of %s", pos, fn.Name.Name)
						}
						return true
					}
					if sel.Sel.Name != "MatchedBy" {
						return true
					}
					if sites[fn.Name.Name] != filepath.ToSlash(name) {
						t.Errorf("%s: %s tests a signature outside the audited sites", pos, fn.Name.Name)
						return true
					}
					found[fn.Name.Name]++
					if !chargedBefore(stack) {
						t.Errorf("%s: no earlier `+= …len(sig)…` in an enclosing block of %s", pos, fn.Name.Name)
					}
					return true
				})
			}
		}
	}
	for name := range sites {
		if found[name] == 0 {
			t.Errorf("%s no longer tests a signature: drop its row", name)
		}
	}
	if lookups < 2 || suppressing != 1 {
		t.Errorf("found %d state lookups and %d Suppressing calls in core, want suspendTypeI's and identifyMNS's and suppressor's: the audit is looking for the wrong names", lookups, suppressing)
	}
}

// comparisonsChargedNext reports whether the statement after the one the
// stack descends through, in its innermost block, adds to a Comparisons
// counter.
func comparisonsChargedNext(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		for k, stmt := range block.List {
			if stmt != stack[i+1] || k+1 == len(block.List) {
				continue
			}
			add, ok := block.List[k+1].(*ast.AssignStmt)
			if !ok || add.Tok != token.ADD_ASSIGN {
				return false
			}
			sel, ok := add.Lhs[0].(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "Comparisons"
		}
		return false
	}
	return false
}

// chargedBefore reports whether, in some block on the stack, a statement
// before the one the stack descends through is an add-assignment of a len.
func chargedBefore(stack []ast.Node) bool {
	for i, n := range stack[:len(stack)-1] {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			continue
		}
		for _, stmt := range block.List {
			if stmt == stack[i+1] {
				break
			}
			if add, ok := stmt.(*ast.AssignStmt); ok && add.Tok == token.ADD_ASSIGN && mentionsLen(add.Rhs[0]) {
				return true
			}
		}
	}
	return false
}

func mentionsLen(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "len" {
			found = true
		}
		return !found
	})
	return found
}
