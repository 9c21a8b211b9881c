// Package snapshotpure enforces the deep-copy contract of the state
// snapshot family — State, SetState, WarmState, SetWarmState, CopyFrom,
// CopyWarmFrom — across the simulator's state-bearing packages (bpred,
// core, memsys, emu, regfile, sample). Parallel window workers boot from
// these snapshots; a reference-typed field (slice, map, pointer) copied
// by plain assignment aliases the live structure, and the resulting
// cross-window write sharing is exactly the class of bug
// TestParallelEstimateBitEqual exists to catch — after the fact. This
// analyzer catches it at build time.
//
// Inside a snapshot-family method it reports:
//
//   - a field write (x.f = ..., x.f[k] = ...) whose right-hand side is
//     a bare reference-typed expression (identifier, field read, index,
//     or reslice) rather than an explicit copy (append, copy, make, a
//     State call, a loop);
//   - a composite-literal field initialized from such an expression;
//   - a whole-struct copy (*dst = *src) of a struct containing
//     reference-typed fields;
//   - returning a bare reference-typed projection of the receiver or a
//     parameter.
//
// A deliberate share — the emulator's copy-on-write page snapshot is
// the canonical one, and a CopyFrom handing SetState a read-only view
// of its source another — is exempted with //rix:shared on the line (or
// the line above), which is a claim that the aliasing is protected by a
// documented copy-on-write or immutability protocol.
package snapshotpure

import (
	"go/ast"
	"go/token"

	"rix/internal/analysis"
)

// Marker exempts a deliberate, documented copy-on-write share.
const Marker = "rix:shared"

// Methods is the snapshot family: method names whose bodies must deep
// copy.
var Methods = map[string]bool{
	"State": true, "SetState": true, "WarmState": true, "SetWarmState": true,
	"CopyFrom": true, "CopyWarmFrom": true,
}

// Analyzer is the snapshotpure check.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotpure",
	Doc:  "flag reference-typed fields copied by plain assignment in State/SetState/CopyFrom-family methods",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, fn := range analysis.FuncsOf(pass.Files) {
		if fn.Recv == nil || !Methods[fn.Name.Name] {
			continue
		}
		checkMethod(pass, fn)
	}
	return nil, nil
}

func checkMethod(pass *analysis.Pass, fn *ast.FuncDecl) {
	sources := sourceIdents(fn)
	addRangeVars(fn, sources)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // different frame; the family contract is per-method
		case *ast.AssignStmt:
			checkAssign(pass, fn, n, sources)
		case *ast.CompositeLit:
			checkComposite(pass, fn, n, sources)
		case *ast.ReturnStmt:
			checkReturn(pass, fn, n, sources)
		}
		return true
	})
}

// sourceIdents collects the receiver and parameter names — the objects a
// returned alias would leak.
func sourceIdents(fn *ast.FuncDecl) map[string]bool {
	set := map[string]bool{}
	for _, f := range fn.Recv.List {
		for _, name := range f.Names {
			set[name.Name] = true
		}
	}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			for _, name := range f.Names {
				set[name.Name] = true
			}
		}
	}
	return set
}

// addRangeVars extends sources with range variables bound over a
// source-rooted expression: in `for pn, p := range m.pages`, p aliases
// m's storage, so `st.Pages[pn] = p[:]` is the canonical copy-on-write
// share. Iterates to a fixpoint for ranges over range variables.
func addRangeVars(fn *ast.FuncDecl, sources map[string]bool) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if root := rootIdent(rs.X); root == nil || !sources[root.Name] {
				return true
			}
			for _, v := range []ast.Expr{rs.Key, rs.Value} {
				if id, ok := v.(*ast.Ident); ok && id.Name != "_" && !sources[id.Name] {
					sources[id.Name] = true
					changed = true
				}
			}
			return true
		})
	}
}

func checkAssign(pass *analysis.Pass, fn *ast.FuncDecl, as *ast.AssignStmt, sources map[string]bool) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		rhs := as.Rhs[i]
		// Whole-struct copy through pointers: *dst = *src shares every
		// reference field of the struct at once.
		if lstar, ok := ast.Unparen(lhs).(*ast.StarExpr); ok {
			if _, ok := ast.Unparen(rhs).(*ast.StarExpr); ok {
				if root := rootIdent(rhs); root == nil || !sources[root.Name] {
					continue
				}
				if t, ok := pass.TypesInfo.Types[lstar]; ok && analysis.HasReferenceField(t.Type) {
					report(pass, as.Pos(),
						"%s: whole-struct assignment shares its reference-typed fields; copy them explicitly", fn.Name.Name)
				}
			}
			continue
		}
		// Field or element writes only: locals may alias for reading.
		switch ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
		default:
			continue
		}
		if !plainAlias(pass, rhs) {
			continue
		}
		// Only a right-hand side rooted at the receiver or a parameter is
		// an aliasing bug; a local is assumed to be a freshly built copy
		// (tracking local dataflow is out of scope for a vet check).
		if root := rootIdent(rhs); root == nil || !sources[root.Name] {
			continue
		}
		if sameRoot(lhs, rhs) {
			continue // x.f = x.f[:n] style self-adjustment
		}
		report(pass, rhs.Pos(),
			"%s: reference-typed value copied by assignment aliases the source; deep-copy it (append/copy) or mark the line //rix:shared", fn.Name.Name)
	}
}

func checkComposite(pass *analysis.Pass, fn *ast.FuncDecl, lit *ast.CompositeLit, sources map[string]bool) {
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if !plainAlias(pass, kv.Value) {
			continue
		}
		if root := rootIdent(kv.Value); root == nil || !sources[root.Name] {
			continue
		}
		report(pass, kv.Value.Pos(),
			"%s: composite-literal field aliases a reference-typed source; deep-copy it or mark the line //rix:shared", fn.Name.Name)
	}
}

func checkReturn(pass *analysis.Pass, fn *ast.FuncDecl, ret *ast.ReturnStmt, sources map[string]bool) {
	for _, res := range ret.Results {
		if !plainAlias(pass, res) {
			continue
		}
		if root := rootIdent(res); root != nil && sources[root.Name] {
			report(pass, res.Pos(),
				"%s: returns a reference-typed view of %s without copying; deep-copy it or mark the line //rix:shared", fn.Name.Name, root.Name)
		}
	}
}

// plainAlias reports whether e is a bare reference-typed expression
// that, assigned as-is, aliases its source: an identifier, selector
// chain, index, or slice expression. Calls, literals, nil, and unary
// &x (a freshly built value) are not flagged here.
func plainAlias(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.IsNil() || !analysis.IsReferenceType(tv.Type) {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		// A bare identifier only aliases if it names a variable, not a
		// package or type.
		return rootIdent(e) != nil
	case *ast.SelectorExpr, *ast.IndexExpr:
		return rootIdent(e) != nil
	case *ast.SliceExpr:
		return rootIdent(e.X) != nil
	}
	return false
}

// rootIdent returns the leftmost identifier of a selector/index/slice
// chain, or nil when the chain bottoms out in a call or literal.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func sameRoot(a, b ast.Expr) bool {
	ra, rb := rootIdent(a), rootIdent(b)
	return ra != nil && rb != nil && ra.Name == rb.Name
}

func report(pass *analysis.Pass, pos token.Pos, format string, args ...interface{}) {
	if pass.HasAnnotation(pos, Marker) {
		return
	}
	pass.Reportf(pos, format, args...)
}
