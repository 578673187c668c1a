// Package analysis is fairnn's static invariant-checker suite: five
// analyzers that turn the repository's load-bearing runtime contracts —
// per-query RNG streams derived from the atomic seed counter, zero-alloc
// steady-state query paths, read-only indexes after construction,
// context polling inside rejection loops, and panic-contained fan-outs —
// into compile-time checks that run in CI before any test does.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built entirely on the standard
// library: the module has zero external dependencies and the lint suite
// keeps it that way. cmd/fairnnlint drives the analyzers both standalone
// (loading packages via `go list -export`) and as a `go vet -vettool`
// (speaking the unitchecker .cfg protocol).
//
// # Directives
//
// The analyzers are steered by machine-readable comments of the form
// //fairnn:<name> [reason...]. On a function's doc comment:
//
//	//fairnn:noalloc        — the function is a steady-state zero-alloc
//	                          hot path; the noalloc analyzer checks its
//	                          body and requires every direct callee in
//	                          this module to carry the same annotation.
//	//fairnn:rng-source     — the function is a blessed RNG construction
//	                          site; rngstream does not flag rng.New or
//	                          Source.Seed calls inside it.
//	//fairnn:mutates        — the method legitimately writes fields of a
//	                          //fairnn:frozen type outside the build path
//	                          (e.g. the Appendix A rank-swap helpers).
//	//fairnn:fanout-safe    — the function is a blessed goroutine
//	                          launcher (parallelRange, safeCall): go
//	                          statements whose body routes through it are
//	                          contained.
//
// On a struct type's doc comment:
//
//	//fairnn:frozen         — the type is an index that must be read-only
//	                          after construction; frozenindex reports
//	                          field writes outside New*/build*/Insert
//	                          methods and //fairnn:mutates functions.
//
// On (or immediately above) an individual line:
//
//	//fairnn:allocok <why>      — suppress one noalloc finding (pool-miss
//	                              construction, lazy growth the analyzer
//	                              cannot prove, cold branches).
//	//fairnn:ctxpoll-exempt <why> — suppress one ctxpoll finding.
//
// A reason is required on the line-level suppressions: an escape hatch
// without a justification is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is the help text.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string
	Message  string
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	dirs *directiveIndex
}

// Reportf reports a formatted diagnostic at pos, unless pos lies in a
// _test.go file: the suite's contracts govern non-test code (tests
// legitimately build ad-hoc generators, spawn bare goroutines, and
// allocate in hot loops while measuring them).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.InTestFile(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// InModule reports whether pkg belongs to this module (the lint contracts
// do not extend into the standard library).
func InModule(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == ModulePath || strings.HasPrefix(path, ModulePath+"/")
}

// ModulePath is the module the analyzers enforce contracts for. Testdata
// packages mirror it so analyzers can be exercised hermetically.
const ModulePath = "fairnn"

// A directive is one parsed //fairnn:<name> comment.
type directive struct {
	name   string
	reason string
	pos    token.Pos
}

// directiveIndex is the per-pass view of every //fairnn: directive in the
// package: per-function (doc comments) and per-line (suppressions).
type directiveIndex struct {
	funcs map[*ast.FuncDecl][]directive
	types map[*ast.TypeSpec][]directive
	// lines maps filename → line → directives written on that line (a
	// trailing comment) or as a full-line comment on the line above.
	lines map[string]map[int][]directive
}

// parseDirectives extracts //fairnn: directives from a comment list.
func parseDirectives(groups ...*ast.CommentGroup) []directive {
	var out []directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text, ok := strings.CutPrefix(c.Text, "//fairnn:")
			if !ok {
				continue
			}
			name, reason, _ := strings.Cut(text, " ")
			out = append(out, directive{name: name, reason: strings.TrimSpace(reason), pos: c.Pos()})
		}
	}
	return out
}

// directives lazily builds (and caches) the directive index for the pass.
func (p *Pass) directives() *directiveIndex {
	if p.dirs != nil {
		return p.dirs
	}
	idx := &directiveIndex{
		funcs: make(map[*ast.FuncDecl][]directive),
		types: make(map[*ast.TypeSpec][]directive),
		lines: make(map[string]map[int][]directive),
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if ds := parseDirectives(d.Doc); len(ds) > 0 {
					idx.funcs[d] = ds
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if ds := parseDirectives(d.Doc, ts.Doc, ts.Comment); len(ds) > 0 {
						idx.types[ts] = ds
					}
				}
			}
		}
		for _, g := range f.Comments {
			for _, d := range parseDirectives(g) {
				posn := p.Fset.Position(d.pos)
				m := idx.lines[posn.Filename]
				if m == nil {
					m = make(map[int][]directive)
					idx.lines[posn.Filename] = m
				}
				m[posn.Line] = append(m[posn.Line], d)
			}
		}
	}
	p.dirs = idx
	return idx
}

// FuncDirective reports whether fn's doc comment carries the named
// directive, returning its reason.
func (p *Pass) FuncDirective(fn *ast.FuncDecl, name string) (string, bool) {
	for _, d := range p.directives().funcs[fn] {
		if d.name == name {
			return d.reason, true
		}
	}
	return "", false
}

// TypeDirective reports whether the type spec carries the named directive.
func (p *Pass) TypeDirective(ts *ast.TypeSpec, name string) (string, bool) {
	for _, d := range p.directives().types[ts] {
		if d.name == name {
			return d.reason, true
		}
	}
	return "", false
}

// LineDirective reports whether node's starting line — or the full line
// directly above it — carries the named directive. This is the escape
// hatch for individual findings; the reason string lets reviewers audit
// every suppression.
func (p *Pass) LineDirective(node ast.Node, name string) (string, bool) {
	posn := p.Fset.Position(node.Pos())
	m := p.directives().lines[posn.Filename]
	if m == nil {
		return "", false
	}
	for _, line := range [2]int{posn.Line, posn.Line - 1} {
		for _, d := range m[line] {
			if d.name == name {
				return d.reason, true
			}
		}
	}
	return "", false
}

// EnclosingFunc returns the FuncDecl whose body contains pos, if any.
func (p *Pass) EnclosingFunc(pos token.Pos) *ast.FuncDecl {
	for _, f := range p.Files {
		if f.Pos() > pos || f.End() < pos {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
				return fd
			}
		}
	}
	return nil
}

// Callee resolves the static callee of a call expression: the *types.Func
// for direct calls of named functions and methods (generic instances are
// resolved to their origin). It returns nil for calls of func-typed
// values, type conversions, and builtins — dynamic targets the analyzers
// deliberately do not chase.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := p.TypesInfo.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = p.TypesInfo.Uses[fun.Sel] // qualified identifier pkg.F
		}
	case *ast.IndexExpr: // generic instantiation F[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = p.TypesInfo.Uses[id]
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			obj = p.TypesInfo.Uses[id]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return fn.Origin()
}

// IsInterfaceMethod reports whether the call is a dynamic dispatch
// through an interface method — a target the analyzers cannot chase
// statically (the sketch Counter family, the Backend seam).
func (p *Pass) IsInterfaceMethod(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := p.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	return types.IsInterface(selection.Recv().Underlying())
}
