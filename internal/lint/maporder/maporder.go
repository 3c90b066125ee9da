// Package maporder flags `for … range` over a map in the deterministic
// packages. Go randomizes map iteration order per run, so a map range on a
// result, counter or artifact path is exactly the bug class the repo's
// bit-identical guarantees (REF-order finals, byte-stable RESULTS and
// checkpoint goldens, shard-merge equality) cannot survive — and the one
// the runtime equivalence sweeps only catch on exercised paths.
//
// Two shapes are recognized as deterministic and not flagged:
//
//   - collect-and-sort: a loop whose body only appends into local slices,
//     each of which is later passed to a sort.* or slices.Sort* call in the
//     same function (the standard extract-keys-then-sort idiom);
//   - map clear: a loop whose body only deletes the ranged key from the
//     ranged map.
//
// Anything else — including genuinely commutative aggregation the checker
// cannot prove — needs a //jitlint:allow maporder <reason> annotation, so
// the order-insensitivity argument is written down where the loop is.
package maporder

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// DeterministicPackages are the packages whose outputs are pinned
// bit-for-bit by goldens or equivalence sweeps (matched by import-path
// base, per lint.Analyzer.Packages).
var DeterministicPackages = []string{
	"core", "engine", "state", "plan", "shard", "report", "checkpoint", "serve",
	"operator", "feedback",
}

// Analyzer is the maporder check.
var Analyzer = &lint.Analyzer{
	Name: "maporder",
	Doc: "flags range-over-map in deterministic packages unless the loop only " +
		"collects into slices that are sorted before use (or only clears the map)",
	Packages: DeterministicPackages,
	Run:      run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn.Body)
		}
	}
	return nil
}

// checkFunc scans one function body: map ranges are judged against the
// sort calls that follow them in the same body.
func checkFunc(pass *lint.Pass, body *ast.BlockStmt) {
	var ranges []*ast.RangeStmt
	var sorts []sortCall
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					ranges = append(ranges, n)
				}
			}
		case *ast.CallExpr:
			if obj, arg := sortedArg(pass, n); obj != nil {
				sorts = append(sorts, sortCall{obj: obj, pos: arg})
			}
		}
		return true
	})
	for _, rs := range ranges {
		if clearsRangedMap(pass, rs) {
			continue
		}
		if collectsIntoSorted(pass, rs, sorts) {
			continue
		}
		pass.Reportf(rs.For,
			"range over map %s in deterministic package %s: iteration order is randomized; "+
				"extract and sort keys before use, or annotate %s maporder <reason>",
			render(rs.X), pass.Path, lint.AllowPrefix)
	}
}

// sortCall is one sort.*/slices.Sort* invocation and the object of the
// slice it orders.
type sortCall struct {
	obj types.Object
	pos ast.Node
}

// sortedArg recognizes sort.X(s, …) and slices.SortX(s, …) calls and
// returns the object of the first identifier argument, i.e. the slice
// being sorted.
func sortedArg(pass *lint.Pass, call *ast.CallExpr) (types.Object, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil, nil
	}
	pkgIdent, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, nil
	}
	pn, ok := pass.Info.Uses[pkgIdent].(*types.PkgName)
	if !ok {
		return nil, nil
	}
	switch pn.Imported().Path() {
	case "sort", "slices":
	default:
		return nil, nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil, nil
	}
	return pass.Info.Uses[id], call.Args[0]
}

// clearsRangedMap reports the clear idiom: the body is exactly
// delete(m, k) over the ranged map m with the range key k.
func clearsRangedMap(pass *lint.Pass, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	expr, ok := rs.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := expr.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "delete" {
		return false
	}
	if _, isBuiltin := pass.Info.Uses[fn].(*types.Builtin); !isBuiltin {
		return false
	}
	mapArg, ok := call.Args[0].(*ast.Ident)
	rangedMap, ok2 := rs.X.(*ast.Ident)
	if !ok || !ok2 || pass.Info.Uses[mapArg] != pass.Info.Uses[rangedMap] {
		return false
	}
	keyArg, ok := call.Args[1].(*ast.Ident)
	rangeKey, ok2 := rs.Key.(*ast.Ident)
	return ok && ok2 && pass.Info.Uses[keyArg] == pass.Info.Defs[rangeKey]
}

// collectsIntoSorted reports the collect-and-sort idiom: every statement
// in the body appends into a slice variable, and each such slice is
// sorted after the loop in the same function.
func collectsIntoSorted(pass *lint.Pass, rs *ast.RangeStmt, sorts []sortCall) bool {
	var targets []types.Object
	for _, stmt := range rs.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
		if _, isBuiltin := pass.Info.Uses[fn].(*types.Builtin); !isBuiltin {
			return false
		}
		first, ok := call.Args[0].(*ast.Ident)
		if !ok || objOf(pass, first) != objOf(pass, lhs) {
			return false
		}
		targets = append(targets, objOf(pass, lhs))
	}
	if len(targets) == 0 {
		return false
	}
	for _, tgt := range targets {
		sorted := false
		for _, sc := range sorts {
			if sc.obj == tgt && sc.pos.Pos() > rs.End() {
				sorted = true
				break
			}
		}
		if !sorted {
			return false
		}
	}
	return true
}

// objOf resolves an identifier to its object, whether this mention is a
// use or its definition.
func objOf(pass *lint.Pass, id *ast.Ident) types.Object {
	if o := pass.Info.Uses[id]; o != nil {
		return o
	}
	return pass.Info.Defs[id]
}

// render prints the ranged expression compactly for the message.
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return render(e.Fun) + "(…)"
	case *ast.IndexExpr:
		return render(e.X) + "[…]"
	default:
		return "expression"
	}
}
