// Package hotpath keeps annotated hot functions allocation-free in
// their loop bodies.  A function marked
//
//	//repro:hot
//
// in its doc comment -- the exec event loop and dispatcher, the sweep
// worker -- promises that its loops run millions of times per request,
// so per-iteration allocation is a performance bug the benchmarks will
// eventually catch; this analyzer catches it at lint time and names the
// allocation site.
//
// Inside a hot function's loop bodies the analyzer forbids:
//
//   - fmt.* calls (formatting allocates and reflects);
//   - reflect.* calls;
//   - map allocation: make(map...) or a map composite literal;
//   - closure allocation: any function literal;
//   - interface boxing: passing or converting a concrete value whose
//     type is not pointer-shaped (pointers, channels, maps and funcs
//     are stored directly in an interface; structs, strings, slices
//     and numbers escape to the heap when boxed).
//
// Code before or after the loops is not checked: one-time setup may
// allocate.  Function literals are not followed -- a closure built
// inside a loop is already flagged as an allocation, and one built
// outside runs on its own schedule.
package hotpath

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
	"repro/internal/lint/nokey"
)

// Analyzer is the hot-path allocation check.
var Analyzer = &lint.Analyzer{
	Name: "hotpath",
	Doc:  "forbid fmt/reflect calls, map and closure allocation, and interface boxing in the loop bodies of //repro:hot functions",
	Run:  run,
}

// HotVerb is the annotation verb that opts a function in.
const HotVerb = "hot"

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, hot := nokey.HasDirective(fd.Doc, HotVerb); hot {
				checkHot(pass, fd)
			}
		}
	}
	return nil
}

// checkHot flags per-iteration allocation inside the function's loop
// bodies.
func checkHot(pass *lint.Pass, fd *ast.FuncDecl) {
	// Collect every loop body span; a node is "per iteration" when it
	// sits inside any of them.
	var loops []*ast.BlockStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			loops = append(loops, n.Body)
		case *ast.RangeStmt:
			loops = append(loops, n.Body)
		}
		return true
	})
	inLoop := func(n ast.Node) bool {
		for _, b := range loops {
			if n.Pos() >= b.Pos() && n.End() <= b.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if inLoop(n) {
				pass.Reportf(n.Pos(), "closure allocated on every iteration of a //repro:hot loop; hoist it out of the loop or pass a named function")
			}
			return false
		case *ast.CompositeLit:
			if inLoop(n) && isMapType(pass, n) {
				pass.Reportf(n.Pos(), "map allocated on every iteration of a //repro:hot loop; hoist the map out of the loop and reuse it")
			}
		case *ast.CallExpr:
			if inLoop(n) {
				checkCall(pass, n)
			}
		}
		return true
	})
}

// checkCall flags banned callees, per-iteration map makes, and
// interface boxing at one call site.
func checkCall(pass *lint.Pass, call *ast.CallExpr) {
	// Conversions: any(v) / io.Reader(v) box concrete values.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type.Underlying()) && len(call.Args) == 1 {
			reportIfBoxes(pass, call.Args[0], tv.Type)
		}
		return
	}

	if fn := lint.Callee(pass.Info, call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt":
			pass.Reportf(call.Pos(), "fmt.%s formats through reflection and allocates on every iteration of a //repro:hot loop; precompute the message or record raw values", fn.Name())
			return
		case "reflect":
			pass.Reportf(call.Pos(), "reflect.%s on every iteration of a //repro:hot loop; hot paths must stay monomorphic", fn.Name())
			return
		}
	}

	// make(map[...]...) allocates per iteration.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "make" && len(call.Args) >= 1 {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			if tv, ok := pass.Info.Types[call.Args[0]]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(call.Pos(), "map allocated on every iteration of a //repro:hot loop; hoist the map out of the loop and reuse it")
				}
			}
		}
		return
	}

	// Interface boxing through call arguments, func values included.
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // a spread slice is passed as-is
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		reportIfBoxes(pass, arg, pt)
	}
}

// reportIfBoxes flags the argument when assigning it to the interface
// type allocates: its static type is concrete and not pointer-shaped.
func reportIfBoxes(pass *lint.Pass, arg ast.Expr, iface types.Type) {
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	at := tv.Type
	if types.IsInterface(at.Underlying()) {
		return // interface to interface: no new allocation
	}
	if tv.Value != nil {
		return // constants box to pointers into static data, not the heap
	}
	if isPointerShaped(at) {
		return
	}
	pass.Reportf(arg.Pos(), "%s boxed into %s on every iteration of a //repro:hot loop; pass a pointer or restructure so the interface is built once",
		types.TypeString(at, types.RelativeTo(pass.Pkg)), types.TypeString(iface, types.RelativeTo(pass.Pkg)))
}

// isPointerShaped reports whether values of the type are stored
// directly in an interface word: pointers, channels, maps, functions
// and unsafe pointers.  Everything else escapes when boxed.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isMapType reports whether the composite literal builds a map.
func isMapType(pass *lint.Pass, lit *ast.CompositeLit) bool {
	tv, ok := pass.Info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}
