// Package countersmerge is the compile-time form of the reflection merge
// pins: every field of the configured measurement structs must be
// referenced in each of their merge functions, so a counter added in a
// future PR cannot silently vanish from shard merges, sampler deltas or
// histogram aggregation. The runtime tests keep the other half of the
// contract — that the merge *semantics* are right (sums sum, deltas
// invert); this analyzer owns the exhaustiveness half and catches it on
// every build, not just on exercised paths.
package countersmerge

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint"
)

// Target names one struct and the methods that must touch every one of its
// fields.
type Target struct {
	Package string // import-path base the struct lives in
	Type    string
	Funcs   []string
}

// Targets is the audited merge surface: the counter merge behind plan
// totals and shard results, its inverse (the difference the obs sampler and
// the adaptive controller watch) and the latency-histogram merge.
var Targets = []Target{
	{Package: "metrics", Type: "Counters", Funcs: []string{"Add", "Sub"}},
	{Package: "obs", Type: "Histogram", Funcs: []string{"Merge"}},
}

// Analyzer is the countersmerge check.
var Analyzer = &lint.Analyzer{
	Name: "countersmerge",
	Doc: "every field of the measurement structs (metrics.Counters, obs.Histogram) " +
		"must be referenced in their merge and difference methods",
	Packages: targetPackages(),
	Run:      run,
}

func targetPackages() []string {
	seen := map[string]bool{}
	var out []string
	for _, t := range Targets {
		if !seen[t.Package] {
			seen[t.Package] = true
			out = append(out, t.Package)
		}
	}
	return out
}

func run(pass *lint.Pass) error {
	for _, t := range Targets {
		if !matchesBase(pass.Path, t.Package) {
			continue
		}
		obj := pass.Pkg.Scope().Lookup(t.Type)
		if obj == nil {
			continue // the package doesn't define this target's struct
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		fields := make([]*types.Var, st.NumFields())
		for i := range fields {
			fields[i] = st.Field(i)
		}
		for _, name := range t.Funcs {
			decl := findFunc(pass, t.Type, name)
			if decl == nil {
				pass.Reportf(obj.Pos(),
					"countersmerge target %s.%s not found: type %s has no such method",
					t.Type, name, t.Type)
				continue
			}
			var missing []string
			for _, f := range fields {
				if !mentions(pass, decl.Body, f) {
					missing = append(missing, f.Name())
				}
			}
			sort.Strings(missing)
			for _, m := range missing {
				pass.Reportf(decl.Name.Pos(),
					"%s does not reference %s field %s: a field missing from the merge silently "+
						"vanishes from shard/series aggregation",
					funcLabel(t, name), t.Type, m)
			}
		}
	}
	return nil
}

func funcLabel(t Target, name string) string {
	return fmt.Sprintf("%s.%s", t.Type, name)
}

func matchesBase(path, base string) bool {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return path == base
}

// findFunc locates the named method of typeName.
func findFunc(pass *lint.Pass, typeName, name string) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name != name || fn.Body == nil || fn.Recv == nil {
				continue
			}
			t := fn.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			if id, ok := t.(*ast.Ident); ok && id.Name == typeName {
				return fn
			}
		}
	}
	return nil
}

// mentions reports whether the function body references the struct field —
// as a selector (c.Probes) or as a composite-literal key (Counters{Probes:
// …}); go/types records the field object for both.
func mentions(pass *lint.Pass, body *ast.BlockStmt, field *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == field {
			found = true
		}
		return !found
	})
	return found
}
