// Package lockcheck proves three properties of every mutex in the
// service cone (anzkit.Cone), using anzkit's intra-procedural CFG:
//
//  1. Release on every path. A Lock()/RLock() must reach a matching
//     Unlock()/RUnlock() — deferred or straight-line — on every return
//     path. The dataflow runs to a fixpoint with intersection merges, so
//     a lock taken in one arm of a branch and released in the same arm
//     is fine, while a path that returns with the lock held is flagged
//     at the acquisition site. Panic paths are exempt (deferred unlocks
//     run during unwinding).
//
//  2. Nothing slow under the lock. While a mutex is held, the function
//     must not perform a channel operation, enter a select, call
//     time.Sleep or WaitGroup.Wait, or invoke a dynamic callee (func
//     value or interface method — an arbitrary callback from the
//     analyzer's point of view). (*sync.Cond).Wait is exempt: it
//     releases the lock internally. Holding a lock across any of these
//     extends the critical section by an unbounded wait and invites
//     lock-ordering deadlocks.
//
//  3. Annotated field ownership. A struct with a sync.Mutex or
//     sync.RWMutex field must annotate every other field:
//
//     //alloyvet:guard mu     accessed only with mu held (writes need
//     the write lock when mu is an RWMutex)
//     //alloyvet:owner <who>  single writer by construction; exempt
//
//     sync.* and sync/atomic.* typed fields are self-synchronizing and
//     need no annotation. Guarded accesses are checked against the
//     dataflow's held-lock state, which is how RLock/Lock acquisition
//     mode is cross-checked against what the code actually touches.
//
// Conventions the checker understands: methods whose name ends in
// "Locked" run inside the caller's critical section and are skipped
// (their call sites are analyzed instead); objects freshly built from a
// composite literal in the current function are unshared until published
// and their fields may be initialized lock-free; functions using goto,
// labels, or fallthrough are skipped (none exist in the cone). Test
// files are skipped: tests construct and poke internals single-threaded.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"alloysim/tools/analyzers/anzkit"
)

// Analyzer is the lock-discipline check.
var Analyzer = &anzkit.Analyzer{
	Name: "lockcheck",
	Doc:  "prove mutex release on all paths, ban blocking work under locks, check //alloyvet:guard field ownership",
	Run:  run,
}

func run(pass *anzkit.Pass) error {
	if !anzkit.InCone(pass.Pkg.Path()) {
		return nil
	}
	structs := collectStructs(pass)
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			analyzeFunc(pass, structs, fn.Name.Name, fn.Body)
		}
	}
	return nil
}

// ---- struct ownership annotations ----

// structInfo is the lock layout of one struct: its mutex fields and the
// guard assignment of every annotated field.
type structInfo struct {
	mutexes map[string]bool   // mutex field name -> is RWMutex
	guards  map[string]string // guarded field name -> mutex field name
}

// collectStructs indexes every mutex-bearing struct in the package and
// reports fields that carry neither a guard nor an owner annotation.
func collectStructs(pass *anzkit.Pass) map[*types.TypeName]*structInfo {
	out := make(map[*types.TypeName]*structInfo)
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				tn, _ := pass.Info.Defs[ts.Name].(*types.TypeName)
				if tn == nil {
					continue
				}
				if info := indexStruct(pass, ts.Name.Name, st); info != nil {
					out[tn] = info
				}
			}
		}
	}
	return out
}

func indexStruct(pass *anzkit.Pass, name string, st *ast.StructType) *structInfo {
	info := &structInfo{mutexes: map[string]bool{}, guards: map[string]string{}}
	type pending struct {
		fld   *ast.Field
		names []string
	}
	var rest []pending
	for _, fld := range st.Fields.List {
		names := fieldNames(fld)
		switch kind := syncKind(pass, fld.Type); kind {
		case "Mutex", "RWMutex":
			for _, n := range names {
				info.mutexes[n] = kind == "RWMutex"
			}
		case "": // not a sync/atomic type: needs an annotation
			rest = append(rest, pending{fld, names})
		default: // WaitGroup, Once, atomic.Pointer, ...: self-synchronizing
		}
	}
	if len(info.mutexes) == 0 {
		return nil
	}
	for _, p := range rest {
		if guard, ok := anzkit.FieldDirective(p.fld, "guard"); ok {
			// The mutex name is the first word; trailing prose is welcome.
			if f := strings.Fields(guard); len(f) > 0 {
				guard = f[0]
			}
			if _, isMutex := info.mutexes[guard]; !isMutex {
				pass.Reportf(p.fld.Pos(), "//alloyvet:guard %s: %s has no mutex field named %s", guard, name, guard)
				continue
			}
			for _, n := range p.names {
				info.guards[n] = guard
			}
			continue
		}
		if _, ok := anzkit.FieldDirective(p.fld, "owner"); ok {
			continue
		}
		pass.Reportf(p.fld.Pos(), "field %s of mutex-bearing struct %s needs //alloyvet:guard <mu> or //alloyvet:owner <who>", strings.Join(p.names, ", "), name)
	}
	return info
}

// fieldNames returns a field's declared names, or the embedded type name.
func fieldNames(fld *ast.Field) []string {
	if len(fld.Names) > 0 {
		names := make([]string, len(fld.Names))
		for i, n := range fld.Names {
			names[i] = n.Name
		}
		return names
	}
	t := fld.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return []string{t.Name}
	case *ast.SelectorExpr:
		return []string{t.Sel.Name}
	}
	return nil
}

// syncKind returns the type name when a field's type is defined in sync
// or sync/atomic (dereferencing one pointer level), else "".
func syncKind(pass *anzkit.Pass, typeExpr ast.Expr) string {
	tv, ok := pass.Info.Types[typeExpr]
	if !ok {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	switch obj.Pkg().Path() {
	case "sync", "sync/atomic":
		return obj.Name()
	}
	return ""
}

// ---- per-function dataflow ----

// lockState is one held mutex: acquisition mode and site.
type lockState struct {
	write bool
	pos   token.Pos
}

type funcCheck struct {
	pass    *anzkit.Pass
	structs map[*types.TypeName]*structInfo
	// deferred is the flow-insensitive set of mutex keys released by a
	// defer statement anywhere in the function.
	deferred map[string]bool
	// fresh holds locals initialized from a composite literal: unshared
	// objects whose guarded fields may be touched lock-free.
	fresh map[*types.Var]bool
	// reported dedupes diagnostics across dataflow phases.
	reported map[string]bool
}

func analyzeFunc(pass *anzkit.Pass, structs map[*types.TypeName]*structInfo, name string, body *ast.BlockStmt) {
	// Nested literals are functions of their own (goroutine bodies,
	// callbacks): each gets an independent pass with an empty lock set.
	var nested []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			nested = append(nested, lit)
			return false
		}
		return true
	})
	defer func() {
		for _, lit := range nested {
			analyzeFunc(pass, structs, "", lit.Body)
		}
	}()

	if strings.HasSuffix(name, "Locked") {
		return // runs inside the caller's critical section
	}
	g, ok := anzkit.BuildCFG(body)
	if !ok {
		return // goto/labels/fallthrough: out of scope
	}

	fc := &funcCheck{
		pass:     pass,
		structs:  structs,
		deferred: map[string]bool{},
		fresh:    map[*types.Var]bool{},
		reported: map[string]bool{},
	}
	fc.prescan(body)

	// Phase 1: fixpoint on block entry states. Intersection merge: a
	// mutex counts as held at a join only when every incoming path holds
	// it, so divergent paths surface at the release and exit checks
	// rather than as cascading noise.
	in := map[*anzkit.Block]map[string]lockState{g.Entry: {}}
	out := map[*anzkit.Block]map[string]lockState{}
	preds := g.Preds()
	work := []*anzkit.Block{g.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		o := fc.transfer(b, cloneState(in[b]), false)
		if statesEqual(out[b], o) && out[b] != nil {
			continue
		}
		out[b] = o
		for _, s := range b.Succs {
			var ins []map[string]lockState
			for _, p := range preds[s] {
				if po, ok := out[p]; ok {
					ins = append(ins, po)
				}
			}
			merged := mergeStates(ins)
			if _, seen := in[s]; !seen || !statesEqual(in[s], merged) {
				in[s] = merged
				work = append(work, s)
			}
		}
	}

	// Phase 2: one reporting sweep per reachable block with its final
	// entry state.
	for _, b := range g.Blocks {
		if st, ok := in[b]; ok {
			fc.transfer(b, cloneState(st), true)
		}
	}

	// Exit: whatever is still held on a return path and not covered by a
	// deferred unlock never gets released.
	for _, p := range preds[g.Exit] {
		po, ok := out[p]
		if !ok {
			continue
		}
		for key, st := range po {
			if !fc.deferred[key] {
				fc.reportOnce(st.pos, "%s locked here is not released on every return path (no defer, and a return is reachable with it held)", key)
			}
		}
	}
}

// prescan collects the deferred-unlock set and the fresh-local set.
func (fc *funcCheck) prescan(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if key, op := fc.lockOp(n.Call); op == opUnlock || op == opRUnlock {
				if key != "" {
					fc.deferred[key] = true
				}
			} else if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						if key, op := fc.lockOp(call); (op == opUnlock || op == opRUnlock) && key != "" {
							fc.deferred[key] = true
						}
					}
					return true
				})
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if !isCompositeLit(rhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if v, ok := fc.pass.Info.Defs[id].(*types.Var); ok {
						fc.fresh[v] = true
					}
				}
			}
		}
		return true
	})
}

func isCompositeLit(e ast.Expr) bool {
	e = anzkit.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opRLock
	opUnlock
	opRUnlock
)

// lockOp classifies a call as a mutex operation and returns the flattened
// receiver key ("s.mu"). An unflattenable receiver yields "".
func (fc *funcCheck) lockOp(call *ast.CallExpr) (string, lockOpKind) {
	fn := anzkit.CalleeFunc(fc.pass.Info, call)
	if fn == nil {
		return "", opNone
	}
	var op lockOpKind
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		op = opLock
	case "(*sync.RWMutex).RLock":
		op = opRLock
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		op = opUnlock
	case "(*sync.RWMutex).RUnlock":
		op = opRUnlock
	default:
		return "", opNone
	}
	sel, ok := anzkit.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	return flatten(sel.X), op
}

// flatten renders a selector chain as a stable key; "" when the
// expression is not a plain chain of identifiers.
func flatten(e ast.Expr) string {
	switch e := anzkit.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := flatten(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.StarExpr:
		return flatten(e.X)
	}
	return ""
}

// transfer runs a block's units through the lock state. With report set
// it emits diagnostics; the fixpoint phase runs it silently.
func (fc *funcCheck) transfer(b *anzkit.Block, state map[string]lockState, report bool) map[string]lockState {
	for _, u := range b.Units {
		fc.unit(u, state, report)
	}
	return state
}

func (fc *funcCheck) unit(u anzkit.Unit, state map[string]lockState, report bool) {
	// Select marker: entering a select blocks until some case is ready.
	if u.Stmt == nil && u.Expr == nil {
		if sel, ok := u.Origin.(*ast.SelectStmt); ok && report {
			for key := range state {
				fc.reportOnce(sel.Pos(), "%s is held across this select; a blocked case extends the critical section indefinitely", key)
			}
		}
		return
	}

	// Defer statements register releases in prescan; they execute nothing now.
	if _, ok := u.Stmt.(*ast.DeferStmt); ok {
		fc.scanGuards(u, state, report)
		return
	}

	// Lock/unlock calls mutate the state.
	if es, ok := u.Stmt.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok {
			if key, op := fc.lockOp(call); op != opNone && key != "" {
				fc.applyLockOp(call, key, op, state, report)
				return
			}
		}
	}

	fc.scanBlocking(u, state, report)
	fc.scanGuards(u, state, report)
}

func (fc *funcCheck) applyLockOp(call *ast.CallExpr, key string, op lockOpKind, state map[string]lockState, report bool) {
	switch op {
	case opLock, opRLock:
		if prev, held := state[key]; held && report {
			mode := "read-"
			if prev.write {
				mode = ""
			}
			fc.reportOnce(call.Pos(), "%s is already %slocked on this path (acquired earlier in this function); this deadlocks", key, mode)
		}
		state[key] = lockState{write: op == opLock, pos: call.Pos()}
	case opUnlock, opRUnlock:
		prev, held := state[key]
		if !held {
			if report && !fc.deferred[key] {
				fc.reportOnce(call.Pos(), "%s is not held on every path reaching this unlock", key)
			}
		} else if report {
			if prev.write && op == opRUnlock {
				fc.reportOnce(call.Pos(), "RUnlock of %s which was write-locked", key)
			} else if !prev.write && op == opUnlock {
				fc.reportOnce(call.Pos(), "Unlock of %s which was read-locked; use RUnlock", key)
			}
		}
		delete(state, key)
	}
}

// scanBlocking flags channel operations, blocking calls, and dynamic
// callees executed while any mutex is held.
func (fc *funcCheck) scanBlocking(u anzkit.Unit, state map[string]lockState, report bool) {
	if !report || len(state) == 0 {
		return
	}
	held := func() string {
		for key := range state {
			return key
		}
		return ""
	}
	// Communication owned by a select was already reported at the select
	// marker; don't double-report its comm clauses.
	if _, inSelect := u.Origin.(*ast.SelectStmt); inSelect {
		return
	}
	if rs, ok := u.Origin.(*ast.RangeStmt); ok && u.Expr != nil {
		if tv, ok := fc.pass.Info.Types[rs.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				fc.reportOnce(rs.Pos(), "%s is held across a range over a channel; the critical section lasts until the sender closes it", held())
			}
		}
	}
	fc.inspectUnit(u, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.SendStmt:
			fc.reportOnce(n.Pos(), "%s is held across a channel send; a full channel stalls every other holder", held())
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				fc.reportOnce(n.Pos(), "%s is held across a channel receive; an idle channel stalls every other holder", held())
			}
		case *ast.CallExpr:
			if fn := anzkit.CalleeFunc(fc.pass.Info, n); fn != nil {
				switch fn.FullName() {
				case "time.Sleep", "(*sync.WaitGroup).Wait":
					fc.reportOnce(n.Pos(), "%s is held across %s", held(), fn.FullName())
				}
				return
			}
			if anzkit.IsDynamicCall(fc.pass.Info, n) && !nonBlockingByContract(fc.pass.Info, n) {
				fc.reportOnce(n.Pos(), "%s is held across a dynamic call (func value or interface method) — an arbitrary callback from the lock's point of view", held())
			}
		}
	})
}

// nonBlockingByContract exempts interface methods whose contracts forbid
// blocking: error.Error and the context.Context accessors. Flagging
// `err.Error()` or `ctx.Err()` under a lock would drown the real signal.
func nonBlockingByContract(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := anzkit.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	switch fn.FullName() {
	case "(error).Error",
		"(context.Context).Err", "(context.Context).Done",
		"(context.Context).Value", "(context.Context).Deadline":
		return true
	}
	return false
}

// scanGuards checks every guarded-field access in the unit against the
// held-lock state.
func (fc *funcCheck) scanGuards(u anzkit.Unit, state map[string]lockState, report bool) {
	if !report || len(fc.structs) == 0 {
		return
	}
	writes := map[*ast.SelectorExpr]bool{}
	markWrite := func(e ast.Expr) {
		for {
			switch x := anzkit.Unparen(e).(type) {
			case *ast.SelectorExpr:
				writes[x] = true
				return
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	switch s := u.Stmt.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			markWrite(lhs)
		}
	case *ast.IncDecStmt:
		markWrite(s.X)
	}
	fc.inspectUnit(u, func(n ast.Node) {
		if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			markWrite(ue.X) // address taken: assume it will be written
		}
	})
	fc.inspectUnit(u, func(n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		fc.checkGuardedAccess(sel, writes[sel], state)
	})
}

func (fc *funcCheck) checkGuardedAccess(sel *ast.SelectorExpr, isWrite bool, state map[string]lockState) {
	tv, ok := fc.pass.Info.Types[sel.X]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	info := fc.structs[named.Obj()]
	if info == nil {
		return
	}
	guard, guarded := info.guards[sel.Sel.Name]
	if !guarded {
		return
	}
	// A freshly-built local is unshared; initializing it needs no lock.
	if id, ok := anzkit.Unparen(sel.X).(*ast.Ident); ok {
		if v, ok := fc.pass.Info.Uses[id].(*types.Var); ok && fc.fresh[v] {
			return
		}
	}
	base := flatten(sel.X)
	if base == "" {
		return
	}
	key := base + "." + guard
	st, held := state[key]
	switch {
	case !held:
		verb := "read"
		if isWrite {
			verb = "write"
		}
		fc.reportOnce(sel.Pos(), "%s of %s.%s without holding %s (field is //alloyvet:guard %s)", verb, base, sel.Sel.Name, key, guard)
	case isWrite && !st.write && info.mutexes[guard]:
		fc.reportOnce(sel.Pos(), "write to %s.%s while %s is only read-locked; take the write lock", base, sel.Sel.Name, key)
	}
}

// inspectUnit walks the unit's own nodes, staying out of nested function
// literals (they are analyzed as separate functions).
func (fc *funcCheck) inspectUnit(u anzkit.Unit, visit func(ast.Node)) {
	var root ast.Node
	if u.Stmt != nil {
		root = u.Stmt
	} else if u.Expr != nil {
		root = u.Expr
	} else {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func (fc *funcCheck) reportOnce(pos token.Pos, format string, args ...any) {
	key := fc.pass.Fset.Position(pos).String() + "\x00" + format
	if fc.reported[key] {
		return
	}
	fc.reported[key] = true
	fc.pass.Reportf(pos, format, args...)
}

// ---- state plumbing ----

func cloneState(s map[string]lockState) map[string]lockState {
	out := make(map[string]lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func statesEqual(a, b map[string]lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va != vb {
			return false
		}
	}
	return true
}

// mergeStates intersects predecessor states: a mutex is held at a join
// only if every incoming path holds it, read mode winning over write.
func mergeStates(ins []map[string]lockState) map[string]lockState {
	if len(ins) == 0 {
		return map[string]lockState{}
	}
	out := cloneState(ins[0])
	for _, s := range ins[1:] {
		for k, v := range out {
			sv, ok := s[k]
			if !ok {
				delete(out, k)
				continue
			}
			if !sv.write && v.write {
				out[k] = sv
			}
		}
	}
	return out
}
