// Package hotpath checks hot-path functions for the per-event costs the
// compiler's escape analysis does not report. Heap escapes themselves
// (make, new, &T{...}, capturing closures, interface boxing, fmt
// arguments) are gated by scripts/escapecheck, which reads
// `go build -gcflags=-m` for the same functions; this analyzer keeps only
// what -m cannot see:
//   - append whose result is stored outside a local variable. Growth of a
//     field- or global-held slice calls runtime.growslice, which -m never
//     reports; local appends into reused buffers are amortized-free and
//     permitted.
//   - obs.Registry method calls: a registration or map lookup per event
//     is hostile to the event loop even when it does not allocate. Hot
//     paths increment a plain field their component owns, and the
//     registry reads it through a closure registered once at setup.
//
// A function is hot when anzkit.IsHot says so: annotated
// //alloyvet:hotpath, or the Sample method of obs.TimeSeries, which is
// hot with or without the annotation.
//
// Blocks guarded by the invariants idiom — `if invariants.Enabled { ... }`
// or `if invariants.Enabled && cond { ... }` — are exempt: invariants.Enabled
// is a build-tag-gated constant that is false in release builds, so the
// compiler deletes the guarded code.
//
// The check is intraprocedural: callees are only checked if they are hot
// themselves.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"alloysim/tools/analyzers/anzkit"
)

// Analyzer is the hot-path check.
var Analyzer = &anzkit.Analyzer{
	Name: "hotpath",
	Doc:  "flag escaping appends and metric-registry lookups in hot-path functions",
	Run:  run,
}

func run(pass *anzkit.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !anzkit.IsHot(file.Name.Name, fn) {
				continue
			}
			check(pass, fn)
		}
	}
	return nil
}

type checker struct {
	pass *anzkit.Pass
	fn   *ast.FuncDecl
	// parents is the ancestor stack of the node currently being visited,
	// outermost first; used to see where an append result lands.
	parents []ast.Node
	// deadRanges are source spans guarded by invariants.Enabled: dead code
	// in release builds.
	deadRanges [][2]token.Pos
}

func check(pass *anzkit.Pass, fn *ast.FuncDecl) {
	c := &checker{pass: pass, fn: fn}
	c.collectDeadRanges(fn.Body)
	c.walk(fn.Body)
}

// collectDeadRanges records the bodies of if-statements whose condition
// requires the invariants.Enabled constant to be true.
func (c *checker) collectDeadRanges(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if c.requiresInvariants(ifStmt.Cond) {
			c.deadRanges = append(c.deadRanges, [2]token.Pos{ifStmt.Body.Pos(), ifStmt.Body.End()})
		}
		return true
	})
}

// requiresInvariants reports whether the condition can only be true when
// invariants.Enabled is: the constant itself, or a conjunction containing
// it.
func (c *checker) requiresInvariants(cond ast.Expr) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return c.requiresInvariants(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return c.requiresInvariants(e.X) || c.requiresInvariants(e.Y)
		}
	case *ast.SelectorExpr:
		return c.isEnabledConst(e.Sel)
	case *ast.Ident:
		return c.isEnabledConst(e)
	}
	return false
}

func (c *checker) isEnabledConst(id *ast.Ident) bool {
	obj, ok := c.pass.Info.Uses[id].(*types.Const)
	return ok && obj.Name() == "Enabled" && obj.Pkg() != nil && obj.Pkg().Name() == "invariants"
}

func (c *checker) inDeadRange(pos token.Pos) bool {
	for _, r := range c.deadRanges {
		if pos >= r[0] && pos < r[1] {
			return true
		}
	}
	return false
}

func (c *checker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			c.parents = c.parents[:len(c.parents)-1]
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			c.checkCall(call)
		}
		c.parents = append(c.parents, n)
		return true
	})
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.inDeadRange(pos) {
		return
	}
	c.pass.Reportf(pos, "hot path %s: %s", c.fn.Name.Name, fmt.Sprintf(format, args...))
}

func (c *checker) checkCall(call *ast.CallExpr) {
	info := c.pass.Info
	if id := calleeIdent(call.Fun); id != nil {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
			c.checkAppend(call)
		}
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj, ok := info.Uses[sel.Sel].(*types.Func); ok && isRegistryMethod(obj) {
			c.report(call.Pos(), "obs.Registry.%s is a registry lookup; hoist the metric into a struct field at setup", obj.Name())
		}
	}
}

// checkAppend flags appends whose result lands anywhere but a plain local
// variable: growth of a field- or global-held slice escapes, and even the
// no-growth path keeps the backing array reachable beyond the call.
func (c *checker) checkAppend(call *ast.CallExpr) {
	parent := c.parent()
	if assign, ok := parent.(*ast.AssignStmt); ok {
		for i, rhs := range assign.Rhs {
			if rhs != ast.Expr(call) || i >= len(assign.Lhs) {
				continue
			}
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if v, ok := c.pass.Info.ObjectOf(id).(*types.Var); ok && !v.IsField() && v.Parent() != c.pass.Pkg.Scope() {
					return // local-variable append: reused buffer, amortized-free
				}
			}
			c.report(call.Pos(), "append result escapes to %s", exprString(assign.Lhs[i]))
			return
		}
	}
	c.report(call.Pos(), "append result escapes the statement")
}

func (c *checker) parent() ast.Node {
	if len(c.parents) == 0 {
		return nil
	}
	return c.parents[len(c.parents)-1]
}

// isRegistryMethod reports whether fn is a method of obs.Registry
// (matched by package name, like the invariants.Enabled idiom, so the
// analyzer's testdata can provide a stub package).
func isRegistryMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Name() == "obs"
}

func calleeIdent(fun ast.Expr) *ast.Ident {
	switch f := fun.(type) {
	case *ast.Ident:
		return f
	case *ast.ParenExpr:
		return calleeIdent(f.X)
	}
	return nil
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	}
	return "a non-local target"
}
