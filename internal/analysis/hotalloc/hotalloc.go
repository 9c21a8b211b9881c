// Package hotalloc flags heap-allocating constructs inside functions
// annotated //rix:hotpath — the build-time form of the allocation
// budget benchgate enforces at runtime (the hot loop went from 1.25M
// to ~880 allocs/op across PRs 2 and 6; this analyzer keeps casual
// regressions from starting that fight again).
//
// Inside an annotated function it reports:
//
//   - make, new, and fresh-slice append (append([]T(nil), ...),
//     append with a literal or call as its first argument). Growing an
//     existing slice (x = append(x, v)) is the bounded-pool idiom the
//     hot loop is built on and is allowed.
//   - map and slice composite literals, and &T{...} pointer literals.
//   - function literals (closures capture and escape).
//   - go statements (each spawn allocates a stack).
//   - any call into package fmt (formatting boxes and allocates).
//   - interface boxing: passing a concrete value to an interface
//     parameter, or converting a concrete value to an interface type.
//     panic is exempt — by the time it runs, allocation is moot.
//   - string<->[]byte/[]rune conversions (they copy).
//
// A construct that is genuinely cold — an error return path, a
// pool-refill — is suppressed with //rix:alloc-ok on its line (or the
// line above), which doubles as documentation that the allocation is
// deliberate.
//
// The analyzer also *requires* the //rix:hotpath annotation on the
// known hot functions (Required): the per-cycle pipeline stages, the
// emulator step and trace streamer, the sampling warmer's
// per-instruction observe, the cache access behind every warm and timed
// memory reference, the integration table and decision logic that
// rename runs for every instruction, and the pipeline's program-order
// ring operations. Renaming or splitting one of those functions
// updates Required in the same commit, so coverage can't silently rot.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"rix/internal/analysis"
)

// Marker is the annotation that opts a function into the check.
const Marker = "rix:hotpath"

// suppress is the per-line opt-out.
const suppress = "rix:alloc-ok"

// Required maps a package path to the functions ("Name" or
// "Receiver.Name") that must carry the //rix:hotpath annotation. Tests
// may extend it for fixture packages.
var Required = map[string][]string{
	"rix/internal/pipeline": {
		"Pipeline.step", "Pipeline.completeStage", "Pipeline.fetchStage",
		"Pipeline.renameStage", "Pipeline.issueStage", "Pipeline.retireStage",
		"Pipeline.schedule", "Pipeline.newUop",
		"Pipeline.setReady", "Pipeline.allocRS", "Pipeline.unwaitRS",
		"ring.at", "ring.push", "ring.popHead", "ring.popTail", "ring.pos",
	},
	"rix/internal/emu":    {"Emulator.Step", "Streamer.Next"},
	"rix/internal/sample": {"warmer.observe"},
	"rix/internal/memsys": {"Cache.Access"},
	"rix/internal/core": {
		"Table.Match", "Table.Insert", "Integrator.TryIntegrate", "Integrator.NoteRenamed",
	},
}

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flag heap allocations inside //rix:hotpath functions and require the annotation on known hot paths",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	annotated := map[string]bool{}
	for _, fn := range analysis.FuncsOf(pass.Files) {
		key := funcKey(fn)
		if pass.FuncAnnotated(fn, Marker) {
			annotated[key] = true
			checkBody(pass, fn)
		}
	}
	missing := append([]string(nil), Required[pass.Pkg.Path()]...)
	sort.Strings(missing)
	for _, key := range missing {
		if annotated[key] {
			continue
		}
		if fn := findFunc(pass, key); fn != nil {
			pass.Reportf(fn.Pos(), "%s is a known hot path and must be annotated //rix:hotpath", key)
		} else if len(pass.Files) > 0 {
			pass.Reportf(pass.Files[0].Pos(),
				"required hot path %s.%s not found; update hotalloc.Required alongside the rename", pass.Pkg.Path(), key)
		}
	}
	return nil, nil
}

func funcKey(fn *ast.FuncDecl) string {
	if recv := analysis.ReceiverTypeName(fn); recv != "" {
		return recv + "." + fn.Name.Name
	}
	return fn.Name.Name
}

func findFunc(pass *analysis.Pass, key string) *ast.FuncDecl {
	for _, fn := range analysis.FuncsOf(pass.Files) {
		if funcKey(fn) == key {
			return fn
		}
	}
	return nil
}

// checkBody walks one annotated function, skipping nested function
// literals' bodies for the alloc rules other than the literal itself
// (the literal is already flagged; its body is a different frame).
func checkBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(pass, n.Pos(), "closure allocates; hoist it out of the hot path")
			return false
		case *ast.GoStmt:
			report(pass, n.Pos(), "go statement in hot path spawns a goroutine per call")
		case *ast.CompositeLit:
			checkComposite(pass, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(pass, n.Pos(), "&composite literal escapes to the heap")
					return false // the inner literal is covered by this report
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n)
		}
		return true
	})
}

func checkComposite(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		report(pass, lit.Pos(), "slice literal allocates per execution")
	case *types.Map:
		report(pass, lit.Pos(), "map literal allocates per execution")
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	// Conversions: interface boxing and string copies.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		checkConversion(pass, call, tv.Type)
		return
	}
	if b := builtinName(pass, call); b != "" {
		switch b {
		case "make":
			report(pass, call.Pos(), "make allocates; preallocate outside the hot path")
		case "new":
			report(pass, call.Pos(), "new allocates; preallocate outside the hot path")
		case "append":
			if len(call.Args) > 0 && freshSlice(pass, call.Args[0]) {
				report(pass, call.Pos(), "append to a fresh slice allocates; reuse a pooled buffer")
			}
		}
		return // other builtins (len, cap, copy, panic, ...) never allocate
	}
	if callee := calleeObj(pass, call); callee != nil && callee.Pkg() != nil &&
		callee.Pkg().Path() == "fmt" {
		report(pass, call.Pos(), "fmt.%s formats and allocates; keep it off the hot path", callee.Name())
		return
	}
	checkBoxing(pass, call)
}

func checkConversion(pass *analysis.Pass, call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	argT, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	if types.IsInterface(target.Underlying()) && !types.IsInterface(argT.Type.Underlying()) {
		report(pass, call.Pos(), "conversion to interface boxes the value on the heap")
		return
	}
	if stringByteConv(target, argT.Type) {
		report(pass, call.Pos(), "string/byte-slice conversion copies; avoid it in the hot path")
	}
}

func stringByteConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Kind() == types.String
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isBytes(src)) || (isBytes(dst) && isStr(src))
}

// checkBoxing flags concrete arguments bound to interface parameters.
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
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
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.IsNil() || types.IsInterface(at.Type.Underlying()) {
			continue
		}
		if isSmallConst(at) {
			continue // constants intern; no per-call allocation
		}
		report(pass, arg.Pos(), "passing %s to interface parameter boxes it on the heap",
			types.TypeString(at.Type, nil))
	}
}

// isSmallConst reports whether the argument is an untyped or typed
// constant — the runtime interns their boxes, so they do not allocate
// per call.
func isSmallConst(tv types.TypeAndValue) bool { return tv.Value != nil }

func builtinName(pass *analysis.Pass, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
		return id.Name
	}
	return ""
}

func calleeObj(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// freshSlice reports whether the expression denotes a newly created
// slice: a nil conversion, a literal, or a call result.
func freshSlice(pass *analysis.Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		// []T(nil) conversions and call results are both fresh.
		if tv, ok := pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
			if len(e.Args) == 1 {
				if at, ok := pass.TypesInfo.Types[e.Args[0]]; ok && at.IsNil() {
					return true
				}
			}
			return false // converting an existing slice keeps its storage
		}
		return true
	case *ast.Ident:
		if tv, ok := pass.TypesInfo.Types[e]; ok && tv.IsNil() {
			return true
		}
	}
	return false
}

// report emits a diagnostic unless the line carries //rix:alloc-ok.
func report(pass *analysis.Pass, pos token.Pos, format string, args ...interface{}) {
	if pass.HasAnnotation(pos, suppress) {
		return
	}
	pass.Reportf(pos, format, args...)
}
