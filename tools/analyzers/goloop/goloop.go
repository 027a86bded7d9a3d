// Package goloop requires every goroutine spawned in the service cone
// (anzkit.Cone) to have a tracked lifecycle, so the sweep workers cannot
// leak goroutines by construction: a leaked worker holds its captured
// state forever, and a sweep that runs hundreds of points turns "rarely
// leaks one" into unbounded memory growth.
//
// A go statement passes when the analyzer can see a join structurally:
//
//   - WaitGroup-tracked: a (*sync.WaitGroup).Add call precedes the go
//     statement in the same function, or the goroutine body calls
//     (*sync.WaitGroup).Done (the classic Add/go/defer-Done/Wait shape;
//     errgroup's Go method is a method call, not a go statement, so it
//     never reaches this analyzer).
//   - Close-handle: the goroutine body closes a channel — a completion
//     signal some joiner receives (the builder cannot prove the receive,
//     but a close with no receiver is dead code reviewers catch; the
//     inverse, a goroutine with no signal at all, is what leaks).
//   - Single-send result: the body is exactly one channel send, the
//     "future" idiom (go func() { ch <- f() }()).
//
// Named callees defined in the same package are resolved and their
// bodies checked the same way. Anything else needs an explicit audit:
//
//	//alloyvet:detached <why>
//
// on the go statement's line or the line above. A detached annotation
// that no longer sits next to a go statement is itself reported — stale
// audits are worse than none. Test files are skipped (the test framework
// bounds test goroutines' lives).
package goloop

import (
	"go/ast"
	"strings"

	"alloysim/tools/analyzers/anzkit"
)

// Analyzer is the goroutine-lifecycle check.
var Analyzer = &anzkit.Analyzer{
	Name: "goloop",
	Doc:  "require a tracked lifecycle (WaitGroup, close-handle, or single-send) for every go statement",
	Run:  run,
}

func run(pass *anzkit.Pass) error {
	if !anzkit.InCone(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		// Detached annotations in this file, by line; entries not adjacent
		// to a go statement are reported as stale below.
		detached := map[int]*ast.Comment{}
		usedDetached := map[int]bool{}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if _, ok := anzkit.Directive(c.Text, "detached"); ok {
					detached[pass.Fset.Position(c.Pos()).Line] = c
				}
			}
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkBody(pass, fn.Body, detached, usedDetached)
		}
		for line, c := range detached {
			if !usedDetached[line] {
				pass.Reportf(c.Pos(), "stale //alloyvet:detached: no go statement on this or the next line")
			}
		}
	}
	return nil
}

// checkBody audits the go statements that belong directly to one
// function body, then recurses into nested literals (a goroutine that
// spawns goroutines answers for them itself).
func checkBody(pass *anzkit.Pass, body *ast.BlockStmt, detached map[int]*ast.Comment, usedDetached map[int]bool) {
	var gos []*ast.GoStmt
	var nested []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			nested = append(nested, n)
			return false
		case *ast.GoStmt:
			gos = append(gos, n)
			// The spawned literal still belongs to this body's audit via
			// goBody; its own inner go statements are its business.
		}
		return true
	})

	for _, g := range gos {
		line := pass.Fset.Position(g.Pos()).Line
		if _, ok := detached[line]; ok {
			usedDetached[line] = true
			continue
		}
		if _, ok := detached[line-1]; ok {
			usedDetached[line-1] = true
			continue
		}
		if wgAddBefore(pass, body, g) || trackedBody(pass, goBody(pass, g)) {
			continue
		}
		pass.Reportf(g.Pos(), "go statement without a tracked lifecycle: join it (WaitGroup, close-handle, or single-send result) or audit it with //alloyvet:detached <why>")
	}

	for _, lit := range nested {
		checkBody(pass, lit.Body, detached, usedDetached)
	}
}

// goBody resolves the spawned function's body: a literal directly, or a
// same-package named function or method.
func goBody(pass *anzkit.Pass, g *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return lit.Body
	}
	fn := anzkit.CalleeFunc(pass.Info, g.Call)
	if fn == nil {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.Info.Defs[fd.Name] == fn {
				return fd.Body
			}
		}
	}
	return nil
}

// wgAddBefore reports whether a (*sync.WaitGroup).Add call lexically
// precedes the go statement in the same function body.
func wgAddBefore(pass *anzkit.Pass, body *ast.BlockStmt, g *ast.GoStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= g.Pos() {
			return true
		}
		if fn := anzkit.CalleeFunc(pass.Info, call); fn != nil && fn.FullName() == "(*sync.WaitGroup).Add" {
			found = true
		}
		return true
	})
	return found
}

// trackedBody reports whether a goroutine body carries its own lifecycle
// signal: a WaitGroup.Done, a channel close, or a lone result send.
func trackedBody(pass *anzkit.Pass, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	if len(body.List) == 1 {
		if _, ok := body.List[0].(*ast.SendStmt); ok {
			return true
		}
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := anzkit.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
			found = true
			return false
		}
		if fn := anzkit.CalleeFunc(pass.Info, call); fn != nil && fn.FullName() == "(*sync.WaitGroup).Done" {
			found = true
			return false
		}
		return true
	})
	return found
}
