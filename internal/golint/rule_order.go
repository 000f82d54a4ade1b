package golint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DL001 — ordered-output map iteration. Go randomizes map iteration
// order, so a `for range` over a map whose body builds ordered output
// (appends to a slice, writes to a strings.Builder or bytes.Buffer,
// sends on a channel) makes the result differ run to run. In the
// deterministic-answer packages that breaks the engine's core promise:
// bit-identical answers, reports, and on-disk artifacts at every worker
// and shard count. The loop is exempt when every slice it appends to is
// sorted afterwards in the same function — the canonical collect-then-
// sort idiom (see storage.bucketize) — or when its effects are order-
// insensitive (map/set writes, commutative counters).
func ruleMapOrder(a *analyzer) {
	if !matchPkg(a.cfg.DeterministicPkgs, a.pkg.Path) {
		return
	}
	for _, fd := range a.enclosingFuncs() {
		fd := fd
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := a.typeOf(rng.X); t == nil || !isMap(t) {
				return true
			}
			for _, eff := range a.orderedEffects(rng) {
				if eff.target != nil && a.sortedAfter(fd, rng, eff.target) {
					continue
				}
				a.report("DL001", eff.pos,
					"map iteration order is random: %s inside `for range %s` makes the output order nondeterministic; sort the keys first, or sort the result before it escapes",
					eff.desc, exprString(rng.X))
				return true // one finding per loop
			}
			return true
		})
	}
}

// DL003 — fan-in merge order. Collecting goroutine results by draining a
// channel appends in arrival order, which varies with scheduling; merged
// answers must instead be placed by part/shard index (the goroutines of
// core's partitioned FILTER path, cluster.Scatter results) so per-part
// results merge in a deterministic order. Exempt when the gathered slice is sorted
// afterwards in the same function.
func ruleMergeOrder(a *analyzer) {
	if !matchPkg(a.cfg.DeterministicPkgs, a.pkg.Path) {
		return
	}
	for _, fd := range a.enclosingFuncs() {
		fd := fd
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := a.typeOf(rng.X); t == nil || !isChan(t) {
				return true
			}
			for _, eff := range a.orderedEffects(rng) {
				if eff.kind != effAppend {
					continue // builder writes over a channel drain are rare; appends are the merge hazard
				}
				if a.sortedAfter(fd, rng, eff.target) {
					continue
				}
				a.report("DL003", eff.pos,
					"fan-in gathers in channel-arrival order: %s inside `for range %s` depends on goroutine scheduling; index the result by worker/shard instead, or sort it before it escapes",
					eff.desc, exprString(rng.X))
				return true
			}
			return true
		})
	}
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isChan(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

type effectKind int

const (
	effAppend effectKind = iota
	effWrite
	effSend
)

// orderedEffect is one order-sensitive operation inside a range body.
type orderedEffect struct {
	kind   effectKind
	pos    token.Pos
	desc   string
	target types.Object // the appended-to slice, when identifiable
}

// orderedEffects finds order-sensitive operations in a range body:
// appends to slices declared outside the loop, writes to outer
// strings.Builder/bytes.Buffer values, and channel sends. Appends to
// loop-local slices are per-iteration scratch and do not count.
func (a *analyzer) orderedEffects(rng *ast.RangeStmt) []orderedEffect {
	var effs []orderedEffect
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || calleeName(call) != "append" || len(call.Args) == 0 {
					continue
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok {
					continue
				}
				if obj := a.objOf(id); obj != nil {
					if _, builtin := obj.(*types.Builtin); !builtin {
						continue // shadowed append
					}
				}
				target := a.rootObj(call.Args[0])
				if target != nil && declaredWithin(target, rng.Body.Pos(), rng.Body.End()) {
					continue
				}
				desc := "append"
				if i < len(v.Lhs) {
					desc = "appending to " + exprString(v.Lhs[i])
				}
				effs = append(effs, orderedEffect{kind: effAppend, pos: call.Pos(), desc: desc, target: target})
			}
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok || !isOrderedWrite(sel.Sel.Name) {
				return true
			}
			t := a.typeOf(sel.X)
			if t == nil || !(isNamed(t, "strings", "Builder") || isNamed(t, "bytes", "Buffer")) {
				return true
			}
			if recv := a.rootObj(sel.X); recv != nil && declaredWithin(recv, rng.Body.Pos(), rng.Body.End()) {
				return true
			}
			effs = append(effs, orderedEffect{kind: effWrite, pos: v.Pos(), desc: "writing to " + exprString(sel.X)})
		case *ast.SendStmt:
			effs = append(effs, orderedEffect{kind: effSend, pos: v.Pos(), desc: "sending on " + exprString(v.Chan)})
		}
		return true
	})
	return effs
}

func isOrderedWrite(name string) bool {
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return true
	}
	return false
}

// rootObj resolves the base identifier of an expression (x, x[i], x.f)
// to its object, or nil.
func (a *analyzer) rootObj(e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return a.objOf(v)
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether target is passed to a sort call after the
// loop in the same function — the collect-then-sort idiom that restores
// a deterministic order. A "sort call" is sort.*/slices.* directly, or a
// same-package helper whose own body (transitively) contains one, so
// wrappers like a local sortValues(vs) count.
func (a *analyzer) sortedAfter(fd *ast.FuncDecl, rng *ast.RangeStmt, target types.Object) bool {
	if target == nil {
		return false
	}
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !a.isSortCall(call, make(map[*ast.FuncDecl]bool)) {
			return true
		}
		for _, arg := range call.Args {
			argSeen := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && a.objOf(id) == target {
					argSeen = true
				}
				return !argSeen
			})
			if argSeen {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

// isSortCall reports whether a call sorts: sort.*/slices.* directly, or a
// same-package function whose body contains a sort call. seen breaks
// recursion cycles.
func (a *analyzer) isSortCall(call *ast.CallExpr, seen map[*ast.FuncDecl]bool) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if a.isPkg(sel.X, "sort") || a.isPkg(sel.X, "slices") {
			return true
		}
	}
	decl := a.resolveCallee(call)
	if decl == nil || decl.Body == nil || seen[decl] {
		return false
	}
	seen[decl] = true
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if inner, ok := n.(*ast.CallExpr); ok && a.isSortCall(inner, seen) {
			found = true
			return false
		}
		return true
	})
	return found
}
