// Package keycomplete statically proves that every knob of the wire
// Scenario document can reach the canonical run key: every exported
// field of the Scenario (all nested sections) must be read somewhere in
// the call closure of Scenario.Resolve, the only path by which a wire
// knob reaches the (spec, plan) pair the key encodes, or carry an
// explicit //repro:nokey exclusion annotation (see package nokey).  The
// trace flag is the canonical example of the latter: a pure observer,
// deliberately outside the key.
//
// The key itself needs no check: it is the JSON encoding of the
// resolved pair, so every field of the spec and the plan is in it by
// construction (wire's TestCanonicalRunKeyCoverage fails the two ways
// JSON could skip one).
//
// Malformed or misplaced annotations are diagnostics too: a stale
// exclusion is as dangerous as a missing resolution.
package keycomplete

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint"
	"repro/internal/lint/nokey"
)

// Analyzer is the keycomplete check.
var Analyzer = &lint.Analyzer{
	Name: "keycomplete",
	Doc:  "verify every scenario field is read while resolving the run it keys, or is //repro:nokey annotated",
	Run:  run,
}

// run activates on any package declaring a struct type Scenario with a
// Resolve method.
func run(pass *lint.Pass) error {
	obj, ok := pass.Pkg.Scope().Lookup("Scenario").(*types.TypeName)
	if !ok {
		return nil
	}
	scen, ok := obj.Type().(*types.Named)
	if !ok || !isStruct(scen) {
		return nil
	}
	resolve := method(scen, "Resolve")
	if resolve == nil {
		return nil
	}
	c := &checker{pass: pass, anns: nokey.ParseFiles(pass.Files), seen: map[*types.Named]bool{}}
	for _, p := range c.anns.Problems() {
		pass.Reportf(p.Pos, "%s", p.Message)
	}
	c.reads = c.resolutionReads(resolve)
	c.visitResolved(scen)
	return nil
}

// checker carries the traversal state of one keycomplete run.
type checker struct {
	pass  *lint.Pass
	anns  *nokey.Set
	reads map[*types.Var]bool // fields read on Resolve's call closure
	seen  map[*types.Named]bool
}

// resolutionReads returns every field read on the same-package call
// closure of resolve.
func (c *checker) resolutionReads(resolve *types.Func) map[*types.Var]bool {
	pass := c.pass
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}

	// Breadth-first closure of same-package calls from Resolve.
	reads := map[*types.Var]bool{}
	queue := []*types.Func{resolve}
	inClosure := map[*types.Func]bool{resolve: true}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fd := decls[fn]
		if fd == nil || fd.Body == nil {
			continue
		}
		c.collectReads(fd.Body, reads)
		for _, callee := range c.callees(fd.Body) {
			if callee.Pkg() == pass.Pkg && !inClosure[callee] {
				inClosure[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	return reads
}

// visitResolved checks one wire struct's fields against the resolution
// read set, recursing into same-package section structs.
func (c *checker) visitResolved(n *types.Named) {
	if c.seen[n] {
		return
	}
	c.seen[n] = true
	st := n.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue
		}
		if _, excluded := c.anns.Excluded(n.Obj().Name(), f.Name()); excluded {
			continue
		}
		if !c.reads[f] {
			c.pass.Reportf(f.Pos(), "%s.%s.%s is never read while resolving %s (it cannot reach the canonical key) and has no //repro:nokey annotation; resolve it into the plan or annotate the exclusion",
				n.Obj().Pkg().Name(), n.Obj().Name(), f.Name(), "Scenario")
			continue
		}
		for _, nested := range reachableStructs(f.Type()) {
			if nested.Obj().Pkg() == c.pass.Pkg {
				c.visitResolved(nested)
			}
		}
	}
}

// collectReads records field objects read in body, skipping selectors
// that are pure assignment targets (writes cannot feed the key).
func (c *checker) collectReads(body *ast.BlockStmt, reads map[*types.Var]bool) {
	writes := map[*ast.SelectorExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
			for _, lhs := range as.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || writes[sel] {
			return true
		}
		if s := c.pass.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			reads[s.Obj().(*types.Var)] = true
		}
		return true
	})
}

// callees lists the functions body calls, resolved through the type
// information (plain calls, method calls, qualified calls).
func (c *checker) callees(body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := lint.Callee(c.pass.Info, call); fn != nil {
			out = append(out, fn)
		}
		return true
	})
	return out
}

func isStruct(n *types.Named) bool {
	_, ok := n.Underlying().(*types.Struct)
	return ok
}

// reachableStructs lists the named struct types reachable from t
// through pointers, slices, arrays and map values.
func reachableStructs(t types.Type) []*types.Named {
	switch t := t.(type) {
	case *types.Pointer:
		return reachableStructs(t.Elem())
	case *types.Slice:
		return reachableStructs(t.Elem())
	case *types.Array:
		return reachableStructs(t.Elem())
	case *types.Map:
		return append(reachableStructs(t.Key()), reachableStructs(t.Elem())...)
	case *types.Named:
		if isStruct(t) {
			return []*types.Named{t}
		}
	}
	return nil
}

// method returns the declared method named name on n (value or pointer
// receiver), or nil.
func method(n *types.Named, name string) *types.Func {
	for i := 0; i < n.NumMethods(); i++ {
		if m := n.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}
