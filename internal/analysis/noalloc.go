package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc checks functions annotated //fairnn:noalloc — the pooled
// Sample/SampleKInto hot paths whose steady state must not touch the
// heap (the zero-alloc runtime oracles pin the behavior; this analyzer
// pins the code shape). Inside an annotated function it reports:
//
//   - calls into standard-library packages off a small allocation-free
//     allowlist (fmt.Sprintf in a hot path is the canonical violation);
//   - calls to module functions that are not themselves annotated
//     //fairnn:noalloc — the contract is transitive by annotation, so
//     the whole steady-state call tree is visibly marked;
//   - make/new, slice, map and &struct composite literals, and closure
//     (func) literals — unless the allocation sits under a lazy-init
//     guard (an if whose condition tests nil or compares len/cap), the
//     pool-miss and grow-on-demand idiom that is allocation-free in
//     steady state;
//   - append whose destination differs from its source (steady-state
//     appends recycle a pooled buffer: x = append(x, ...));
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - implicit interface boxing of non-constant, non-pointer-shaped
//     arguments;
//   - go statements.
//
// Escape hatch: //fairnn:allocok <reason> on (or directly above) the
// offending line — required to carry a reason, so every cold-branch
// allocation in a hot function is visibly justified.
//
// Known holes, by design: dynamic calls (interface methods such as the
// sketch counters, and func-valued fields such as
// nearFn/batchScore) are not chased, and FuncLit bodies are not
// descended into once the literal itself is reported. The runtime
// zero-alloc oracles remain the ground truth; this analyzer makes the
// common regressions impossible to merge.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "check //fairnn:noalloc functions for allocation-introducing constructs",
	Run:  runNoAlloc,
}

// noallocStdlib is the allocation-free standard-library allowlist.
// Coarse by design (package granularity): the few allocating functions
// in these packages (slices.Clone, slices.Grow) do not appear in hot
// paths and would be caught by the runtime oracles.
var noallocStdlib = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync":        true,
	"sync/atomic": true,
	"context":     true,
	"time":        true,
	"slices":      true,
	"cmp":         true,
	"runtime":     true,
	"iter":        true,
}

func runNoAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := pass.FuncDirective(fd, "noalloc"); ok {
				pass.checkNoAlloc(fd)
			}
		}
	}
	return nil
}

// allocExempt reports whether a finding at node is suppressed: an
// explicit //fairnn:allocok line directive, or (for lazy-init shapes) an
// enclosing if statement in stack whose condition tests nil or len/cap —
// the pool-miss / grow-on-demand idiom.
func (p *Pass) allocExempt(node ast.Node, stack []ast.Node, lazyOK bool) bool {
	if _, ok := p.LineDirective(node, "allocok"); ok {
		return true
	}
	if !lazyOK {
		return false
	}
	for _, anc := range stack {
		ifs, ok := anc.(*ast.IfStmt)
		if !ok {
			continue
		}
		if condTestsNilOrCap(ifs.Cond) {
			return true
		}
	}
	return false
}

// condTestsNilOrCap reports whether the condition contains a nil
// comparison or a len/cap call — the lazy-init guard shapes
// (qr == nil, cap(buf) < n, len(s) == 0).
func condTestsNilOrCap(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if n.Name == "nil" {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				found = true
			}
		}
		return !found
	})
	return found
}

// pointerShaped reports whether values of type t fit in an interface
// word without heap allocation: pointers, maps, channels, funcs, and
// unsafe pointers.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}

func (p *Pass) checkNoAlloc(fd *ast.FuncDecl) {
	info := p.TypesInfo
	// Approve steady-state appends: x = append(x, ...) recycles x's
	// backing array (amortized growth is the documented exception — the
	// buffers are pooled and reach a fixed point).
	approvedAppend := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
				continue
			} else if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
				continue
			}
			if types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
				approvedAppend[call] = true
			}
		}
		return true
	})

	var stack []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := true
		switch n := n.(type) {
		case *ast.FuncLit:
			if !p.allocExempt(n, stack, true) {
				p.Reportf(n.Pos(), "closure literal in noalloc function %s: captured variables escape to the heap (//fairnn:allocok <reason> if this branch is cold)", fd.Name.Name)
			}
			descend = false // the literal is the finding; its body is a cold path
		case *ast.GoStmt:
			if !p.allocExempt(n, stack, false) {
				p.Reportf(n.Pos(), "go statement in noalloc function %s: goroutine launch allocates (and belongs in a fan-out helper)", fd.Name.Name)
			}
		case *ast.CompositeLit:
			p.checkCompositeLit(fd, n, stack)
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t, ok := info.Types[n]; ok && t.Value == nil {
					if b, ok := t.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						if !p.allocExempt(n, stack, false) {
							p.Reportf(n.Pos(), "string concatenation in noalloc function %s allocates", fd.Name.Name)
						}
					}
				}
			}
		case *ast.CallExpr:
			p.checkNoAllocCall(fd, n, stack, approvedAppend)
		}
		if descend {
			stack = append(stack, n)
			return true
		}
		return false
	}
	ast.Inspect(fd.Body, visit)
}

func (p *Pass) checkCompositeLit(fd *ast.FuncDecl, lit *ast.CompositeLit, stack []ast.Node) {
	t, ok := p.TypesInfo.Types[lit]
	if !ok {
		return
	}
	heapy := false
	what := "composite literal"
	switch t.Type.Underlying().(type) {
	case *types.Slice:
		heapy, what = true, "slice literal"
	case *types.Map:
		heapy, what = true, "map literal"
	case *types.Struct, *types.Array:
		// A value struct/array literal lives on the stack; only the
		// &T{...} form forces a heap object.
		if len(stack) > 0 {
			if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
				heapy, what = true, "&-composite literal"
			}
		}
	}
	if heapy && !p.allocExempt(lit, stack, true) {
		p.Reportf(lit.Pos(), "%s in noalloc function %s allocates (guard with a lazy-init nil/cap check, or //fairnn:allocok <reason>)", what, fd.Name.Name)
	}
}

func (p *Pass) checkNoAllocCall(fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node, approvedAppend map[*ast.CallExpr]bool) {
	info := p.TypesInfo
	// Type conversion?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		p.checkConversion(fd, call, tv.Type, stack)
		return
	}
	// Builtin?
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				if !p.allocExempt(call, stack, true) {
					p.Reportf(call.Pos(), "%s in noalloc function %s allocates (guard with a lazy-init nil/cap check, or //fairnn:allocok <reason>)", id.Name, fd.Name.Name)
				}
			case "append":
				if !approvedAppend[call] && !p.allocExempt(call, stack, true) {
					p.Reportf(call.Pos(), "append in noalloc function %s does not write back to its source: only the recycling form x = append(x, ...) keeps the steady state allocation-free", fd.Name.Name)
				}
			case "print", "println":
				p.Reportf(call.Pos(), "%s in noalloc function %s", id.Name, fd.Name.Name)
			}
			return
		}
	}
	fn := p.Callee(call)
	if fn == nil {
		// Func-valued call (nearFn, batchScore) — dynamic, not chased.
		p.checkBoxing(fd, call, stack)
		return
	}
	if p.IsInterfaceMethod(call) {
		// Counter-style dynamic dispatch — not chased.
		p.checkBoxing(fd, call, stack)
		return
	}
	if pkg := fn.Pkg(); pkg != nil && !InModule(pkg) {
		if !noallocStdlib[pkg.Path()] && !p.allocExempt(call, stack, false) {
			p.Reportf(call.Pos(), "call to %s.%s in noalloc function %s: package %s is not on the allocation-free stdlib allowlist", pkg.Name(), fn.Name(), fd.Name.Name, pkg.Path())
		}
		p.checkBoxing(fd, call, stack)
		return
	}
	// Module callees must carry the annotation themselves; the lazy-init
	// guard exemption applies so pool-miss construction (if qr == nil {
	// qr = newQuerier() }) keeps working without an escape comment.
	if !p.FuncAnnotated(fn, "noalloc") && !p.allocExempt(call, stack, true) {
		p.Reportf(call.Pos(), "noalloc function %s calls %s, which is not annotated //fairnn:noalloc: the steady-state contract is transitive (annotate the callee after checking it, or //fairnn:allocok <reason> for a cold branch)", fd.Name.Name, fn.FullName())
	}
	p.checkBoxing(fd, call, stack)
}

// checkConversion flags conversions that allocate: string<->[]byte/rune
// and boxing into an interface type.
func (p *Pass) checkConversion(fd *ast.FuncDecl, call *ast.CallExpr, to types.Type, stack []ast.Node) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	tv, ok := p.TypesInfo.Types[arg]
	if !ok || tv.Value != nil { // constant conversions use static data
		return
	}
	from := tv.Type
	if types.IsInterface(to.Underlying()) {
		if !types.IsInterface(from.Underlying()) && !pointerShaped(from) && !p.allocExempt(call, stack, false) {
			p.Reportf(call.Pos(), "conversion to interface in noalloc function %s boxes a non-pointer value on the heap", fd.Name.Name)
		}
		return
	}
	toB, toOK := to.Underlying().(*types.Basic)
	_, fromSlice := from.Underlying().(*types.Slice)
	if toOK && toB.Info()&types.IsString != 0 && fromSlice {
		if !p.allocExempt(call, stack, false) {
			p.Reportf(call.Pos(), "[]byte/[]rune to string conversion in noalloc function %s allocates", fd.Name.Name)
		}
		return
	}
	if _, toSlice := to.Underlying().(*types.Slice); toSlice {
		if fromB, ok := from.Underlying().(*types.Basic); ok && fromB.Info()&types.IsString != 0 {
			if !p.allocExempt(call, stack, false) {
				p.Reportf(call.Pos(), "string to slice conversion in noalloc function %s allocates", fd.Name.Name)
			}
		}
	}
}

// checkBoxing flags implicit interface conversions at call arguments:
// passing a non-constant, non-pointer-shaped concrete value where an
// interface parameter is expected heap-allocates the box.
func (p *Pass) checkBoxing(fd *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node) {
	tv, ok := p.TypesInfo.Types[call.Fun]
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
				continue // s... passes the slice through, no boxing
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
		at, ok := p.TypesInfo.Types[arg]
		if !ok || at.Value != nil || at.IsNil() {
			continue
		}
		if types.IsInterface(at.Type.Underlying()) || pointerShaped(at.Type) {
			continue
		}
		if !p.allocExempt(arg, stack, false) && !p.allocExempt(call, stack, false) {
			p.Reportf(arg.Pos(), "argument boxes a non-pointer value into an interface in noalloc function %s", fd.Name.Name)
		}
	}
}
