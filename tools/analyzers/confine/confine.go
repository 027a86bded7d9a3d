// Package confine keeps the timing model single-goroutine.
//
// Every simulation runs on one goroutine, which is what makes results a
// pure function of the configuration. Parallelism belongs across sweep
// points, where internal/experiments runs independent simulations at
// once. A stray goroutine, mutex, or atomic inside the model would
// quietly void that: the race detector only catches the races a test
// happens to schedule, and a data race that changes event order corrupts
// results silently.
//
// So inside the cone (see Cone: the timing-model packages; the experiment
// runner and obs layer are deliberately outside, they are allowed
// ordinary locking) the analyzer flags every concurrency construct:
//
//   - go statements
//   - select statements and channel sends
//   - channel types (declarations, struct fields, make(chan ...))
//   - any reference into package sync or sync/atomic (types, functions,
//     and methods — sync.WaitGroup fields and atomic.Uint64.Load alike)
//
// Test files are skipped: tests may freely spawn goroutines.
package confine

import (
	"go/ast"
	"go/types"
	"strings"

	"alloysim/tools/analyzers/anzkit"
)

// Cone is the set of package-path suffixes under confinement: the packages
// whose state is simulated time. Narrower than the determinism cone —
// internal/experiments and internal/obs coordinate real threads on purpose
// (the sweep scheduler, the serialized sweep writer) and are exempt here;
// the service-cone analyzers (anzkit.Cone) check their goroutines and
// locks.
var Cone = []string{
	"internal/sim",
	"internal/core",
	"internal/cpu",
	"internal/dram",
	"internal/dramcache",
	"internal/cache",
}

// singleGoroutine ends every diagnostic: why the construct is banned and
// where parallelism goes instead.
const singleGoroutine = "the timing model is single-goroutine; run independent simulations in parallel through internal/experiments instead"

// Analyzer is the concurrency-confinement check.
var Analyzer = &anzkit.Analyzer{
	Name: "confine",
	Doc:  "flag concurrency constructs in the single-goroutine timing-model cone",
	Run:  run,
}

// InCone reports whether a package import path is under confinement.
func InCone(path string) bool {
	for _, suffix := range Cone {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

func run(pass *anzkit.Pass) error {
	if !InCone(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in the timing-model cone; "+singleGoroutine)
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select statement in the timing-model cone; "+singleGoroutine)
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send in the timing-model cone; "+singleGoroutine)
			case *ast.ChanType:
				pass.Reportf(n.Pos(), "channel type in the timing-model cone; "+singleGoroutine)
				return false // don't re-flag the element type
			case *ast.SelectorExpr:
				checkSyncRef(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkSyncRef flags any use of package sync or sync/atomic: function
// calls, method calls on their types, and the type names themselves
// (a sync.Mutex struct field is shared mutable state by declaration).
func checkSyncRef(pass *anzkit.Pass, sel *ast.SelectorExpr) {
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil {
		return
	}
	var pkg *types.Package
	switch o := obj.(type) {
	case *types.Func:
		pkg = o.Pkg()
		if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil {
			// Method: attribute it to the receiver type's package, so
			// (atomic.Uint64).Load on a struct field is still caught.
			pkg = recvPkg(sig)
		}
	case *types.TypeName:
		pkg = o.Pkg()
	default:
		return
	}
	if pkg == nil {
		return
	}
	switch pkg.Path() {
	case "sync", "sync/atomic":
		pass.Reportf(sel.Pos(), "%s.%s in the timing-model cone; %s", pkg.Name(), sel.Sel.Name, singleGoroutine)
	}
}

// recvPkg returns the defining package of a method's receiver type.
func recvPkg(sig *types.Signature) *types.Package {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Pkg()
	}
	return nil
}
