// Package analysis is the foundation of rixvet, the project's static
// analysis suite: a deliberately small, dependency-free re-statement of
// the golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass,
// Diagnostic) built entirely on the standard library's go/ast and
// go/types. The build environment is hermetic — no module downloads —
// so the suite vendors nothing and stubs nothing; the subset of the
// upstream API the five rix analyzers need is defined here, with the
// same field names, so migrating to the real framework later is a
// mechanical import swap.
//
// The analyzers themselves live in subpackages (hotalloc, snapshotpure,
// eventenum, ctxflow, gobversion); Suite in suite.go enumerates them
// for the cmd/rixvet driver. Each invariant an analyzer enforces is
// documented in doc/ARCHITECTURE.md's "Static analysis" section.
//
// # Annotations
//
// The analyzers read three source annotations, all line comments:
//
//   - //rix:hotpath — on a function declaration: the body must be
//     allocation-free (hotalloc).
//   - //rix:shared — on a statement inside a State/SetState/CopyFrom
//     method: the reference-typed copy on that line is a documented
//     copy-on-write share or read-only view, not an aliasing bug
//     (snapshotpure).
//   - //rix:alloc-ok, //rix:ctx-ok, //rix:partial — per-line
//     suppressions for hotalloc, ctxflow, and eventenum, for the rare
//     deliberate exception (a cold error path inside a hot function, a
//     deliberate root context, a filter switch). Each analyzer's doc says
//     when a suppression is legitimate.
//
// A suppression applies to the line it is on, or — when written as a
// standalone comment line — to the line directly below it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check, mirroring the upstream
// go/analysis type: a name (used in diagnostics and -only filters), a
// doc string, and a Run function applied once per loaded package.
type Analyzer struct {
	Name string
	Doc  string

	// Run applies the check to one package and reports findings through
	// pass.Report. The interface{} result is reserved for upstream
	// compatibility (fact passing); rix analyzers return nil.
	Run func(pass *Pass) (interface{}, error)
}

// Pass carries one package's syntax and type information through an
// analyzer, mirroring the upstream go/analysis.Pass surface the rix
// analyzers use.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver wires this; analyzers
	// usually call Reportf.
	Report func(Diagnostic)

	lineComments map[string]map[int]string // filename -> line -> comment text
}

// Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// buildLineComments indexes every comment by (file, line) so annotation
// lookups are O(1). A comment group occupying lines n..m annotates each
// of those lines with its text.
func (p *Pass) buildLineComments() {
	p.lineComments = make(map[string]map[int]string)
	for _, f := range p.Files {
		pos := p.Fset.Position(f.Pos())
		m := p.lineComments[pos.Filename]
		if m == nil {
			m = make(map[int]string)
			p.lineComments[pos.Filename] = m
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				start := p.Fset.Position(c.Pos())
				m[start.Line] += c.Text
			}
		}
	}
}

// commentAt returns the comment text on the given file line ("" when
// none).
func (p *Pass) commentAt(filename string, line int) string {
	if p.lineComments == nil {
		p.buildLineComments()
	}
	return p.lineComments[filename][line]
}

// HasAnnotation reports whether the line containing pos, or the line
// directly above it, carries the given //rix:... marker (e.g.
// "rix:alloc-ok"). This is the shared suppression lookup: a marker on
// the flagged line or on a standalone comment line above it.
func (p *Pass) HasAnnotation(pos token.Pos, marker string) bool {
	position := p.Fset.Position(pos)
	return strings.Contains(p.commentAt(position.Filename, position.Line), marker) ||
		strings.Contains(p.commentAt(position.Filename, position.Line-1), marker)
}

// FuncAnnotated reports whether fn's doc comment (or the line above the
// func keyword, for functions whose doc gofmt keeps detached) carries
// the marker.
func (p *Pass) FuncAnnotated(fn *ast.FuncDecl, marker string) bool {
	if fn.Doc != nil && strings.Contains(docRaw(fn.Doc), marker) {
		return true
	}
	return p.HasAnnotation(fn.Pos(), marker)
}

func docRaw(doc *ast.CommentGroup) string {
	var b strings.Builder
	for _, c := range doc.List {
		b.WriteString(c.Text)
		b.WriteByte('\n')
	}
	return b.String()
}

// FuncsOf yields every function declaration in the package with a body.
func FuncsOf(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				out = append(out, fn)
			}
		}
	}
	return out
}

// ReceiverTypeName returns the bare type name of a method's receiver
// ("" for plain functions): *Pipeline and Pipeline both yield
// "Pipeline".
func ReceiverTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch e := t.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver T[P]
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// IsReferenceType reports whether values of t alias underlying storage
// when copied by plain assignment: slices, maps, pointers, and
// channels. Interfaces and functions are excluded — sharing those is
// the norm, not an aliasing bug — and arrays/structs copy by value.
func IsReferenceType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan:
		return true
	}
	return false
}

// HasReferenceField reports whether t (after unwrapping pointers and
// named types) is a struct with at least one reference-typed field,
// searching embedded value structs recursively.
func HasReferenceField(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if IsReferenceType(ft) || HasReferenceField(ft) {
			return true
		}
	}
	return false
}
