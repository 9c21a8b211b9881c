// Package ctxflow enforces the context discipline PR 4 established:
// cancellation enters at the top (cmd/ binaries own the root context)
// and is threaded through, never re-minted mid-stack. Below cmd/ it
// reports:
//
//   - any call to context.Background() or context.TODO(). A library
//     function that needs a context receives one; minting a fresh root
//     silently detaches everything below it from Ctrl-C, deadlines,
//     and test timeouts.
//   - inside a function that receives a context.Context: calls to a
//     context-less function F when a context-aware sibling FContext
//     exists (the repo's Run/RunContext naming convention). Holding a
//     ctx and calling the blind variant drops cancellation on the
//     floor.
//
// A deliberate root context or context drop is exempted with
// //rix:ctx-ok on the line (or the line above). Package main and anything under cmd/ is exempt wholesale —
// that is where roots are supposed to be created.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"rix/internal/analysis"
)

// Marker exempts a deliberate root-context creation or a deliberate
// context drop.
const Marker = "rix:ctx-ok"

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "forbid context.Background/TODO below cmd/ and flag dropped contexts where a Context-aware sibling exists",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if exemptPackage(pass.Pkg) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkRootContext(pass, call)
			return true
		})
	}
	for _, fn := range analysis.FuncsOf(pass.Files) {
		if hasContextParam(pass, fn) {
			checkThreading(pass, fn)
		}
	}
	return nil, nil
}

// exemptPackage reports whether the package is allowed to mint root
// contexts: package main, or anything under a cmd/ directory.
func exemptPackage(pkg *types.Package) bool {
	if pkg.Name() == "main" {
		return true
	}
	path := pkg.Path()
	return strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/")
}

func checkRootContext(pass *analysis.Pass, call *ast.CallExpr) {
	callee := calleeFunc(pass, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "context" {
		return
	}
	switch callee.Name() {
	case "Background", "TODO":
	default:
		return
	}
	if pass.HasAnnotation(call.Pos(), Marker) {
		return
	}
	pass.Reportf(call.Pos(),
		"context.%s() below cmd/ detaches this call tree from cancellation; accept a ctx parameter (or mark a deliberate shim //rix:ctx-ok)",
		callee.Name())
}

// checkThreading reports calls to F from a ctx-receiving function when
// FContext exists — the caller holds a context and is dropping it.
func checkThreading(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		sig, ok := callee.Type().(*types.Signature)
		if !ok || signatureTakesContext(sig) {
			return true // already context-aware
		}
		sibling := contextSibling(pass, call, callee)
		if sibling == nil {
			return true
		}
		if pass.HasAnnotation(call.Pos(), Marker) {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s holds a ctx but calls %s, dropping cancellation; call %s (or mark the drop //rix:ctx-ok)",
			fn.Name.Name, callee.Name(), sibling.Name())
		return true
	})
}

// contextSibling finds a context-aware variant of the callee: a method
// <Name>Context on the same receiver, or a package-level function
// <Name>Context in the callee's package.
func contextSibling(pass *analysis.Pass, call *ast.CallExpr, callee *types.Func) *types.Func {
	want := callee.Name() + "Context"
	sig := callee.Type().(*types.Signature)
	if sig.Recv() != nil {
		// Method: look the sibling up on the receiver type.
		obj, _, _ := types.LookupFieldOrMethod(sig.Recv().Type(), true, callee.Pkg(), want)
		if m, ok := obj.(*types.Func); ok && takesContext(m) {
			return m
		}
		return nil
	}
	if obj, ok := callee.Pkg().Scope().Lookup(want).(*types.Func); ok && takesContext(obj) {
		return obj
	}
	return nil
}

func takesContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && signatureTakesContext(sig)
}

func signatureTakesContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

func hasContextParam(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Body == nil || fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if tv, ok := pass.TypesInfo.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}
