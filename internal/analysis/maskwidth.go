package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// MaskWidth is the worklist generator for the n > 64 wall (ROADMAP).
// Subset masks are single uint64 words, so every call path into
// graph.SubsetMask / MaskSubset / NeighborMask, the fastoracle packed
// words, and the kplex bitset helpers silently inherits an n ≤ 64
// precondition. Before multi-word bitsets can land, every such call site
// must be known: which ones are dominated by an explicit n ≤ 64 guard
// (safe to leave), and which ones would feed an unguarded n into a
// one-word API (the sites the multi-word PR must convert).
//
// The pass is a taint analysis over the call graph:
//
//   - The configured mask APIs seed the "one-word-limited" set.
//   - A function that calls a limited function at an unguarded call site
//     becomes limited itself (fixpoint over the call graph), and the
//     call site is reported as inventory.
//   - A guarded call site stops the propagation and is exported as a
//     "guarded" fact instead of reported.
//
// Guard recognition (all width comparisons are against constants ≤ 64,
// evaluated through go/types so named constants like MaxGateVertices
// count):
//
//   - then-branch of `if n <= C` (or a && chain containing one), or of
//     `if okPred(n, …)` where okPred is a recognized guard predicate —
//     a bool function whose result includes an `n <= C` conjunct
//     (fact kind "guardpred");
//   - statements after an early bailout `if n > C { return/panic }`,
//     after `if err := capsFn(…); err != nil { return }` where capsFn is
//     a recognized caps function — an error function that returns
//     non-nil when n > C (fact kind "caps");
//   - statements after a bare call to a width-check function that
//     panics with a package-prefixed message on n > C (fact kind
//     "widthcheck", e.g. graph.checkMaskWidth).
//
// The findings are inventory, not bugs: they are expected to live in
// LINT_BASELINE.json, visible in every SARIF report, until the
// multi-word bitset PR drains them.
type MaskWidth struct {
	// APIs are the one-word entry points that seed the taint.
	APIs []MaskAPI
}

// MaskAPI selects a seed function by package path suffix and FuncKey.
type MaskAPI struct {
	PkgSuffix string
	Func      string // FuncKey form: "MaskSubset" or "Graph.NeighborMask"
}

// oneWordLimit is the word width every mask API is bounded by.
const oneWordLimit = 64

// DefaultMaskWidth returns the analyzer wired to the repo's one-word
// mask surfaces. fastoracle.New is not seeded: it refuses n > 64 with an
// error before it reads a mask (the early bailout guards its own
// NeighborMask calls), so its callers inherit no precondition; only the
// graph mask-convention APIs still carry the implicit n ≤ 64.
func DefaultMaskWidth() MaskWidth {
	return MaskWidth{APIs: []MaskAPI{
		{PkgSuffix: "internal/graph", Func: "MaskSubset"},
		{PkgSuffix: "internal/graph", Func: "SubsetMask"},
		{PkgSuffix: "internal/graph", Func: "Graph.NeighborMask"},
		{PkgSuffix: "internal/graph", Func: "Graph.InducedDegreeMask"},
	}}
}

// Name implements ModuleAnalyzer.
func (MaskWidth) Name() string { return "maskwidth" }

// Doc implements ModuleAnalyzer.
func (MaskWidth) Doc() string {
	return "inventory of call sites feeding an unguarded n into one-word (n ≤ 64) mask APIs — the multi-word bitset worklist"
}

// widthConst evaluates e to an integer constant via the type checker,
// reporting (value, true) for constants representable as int64.
func (p *Package) widthConst(e ast.Expr) (int64, bool) {
	tv, ok := p.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	return v, exact
}

// widthCmp classifies a binary comparison against a small constant.
// ok=true: the comparison being TRUE bounds the variable side to ≤ 64
// ("n <= 64", "64 >= n", "n < 65"). bail=true: the comparison being TRUE
// means the variable side EXCEEDS a ≤ 64 cap ("n > 64", "n >= 25",
// "64 < n") — the early-bailout shape.
func (p *Package) widthCmp(e ast.Expr) (ok, bail bool) {
	bin, isBin := ast.Unparen(e).(*ast.BinaryExpr)
	if !isBin {
		return false, false
	}
	// Normalize to <var> OP <const>.
	op := bin.Op
	c, isConst := p.widthConst(bin.Y)
	if !isConst {
		if c, isConst = p.widthConst(bin.X); !isConst {
			return false, false
		}
		switch op { // mirror: C OP n  ⇒  n OP' C
		case token.LSS:
			op = token.GTR
		case token.LEQ:
			op = token.GEQ
		case token.GTR:
			op = token.LSS
		case token.GEQ:
			op = token.LEQ
		}
	}
	switch op {
	case token.LEQ:
		return c > 0 && c <= oneWordLimit, false
	case token.LSS:
		return c > 1 && c <= oneWordLimit+1, false
	case token.GTR:
		return false, c > 0 && c <= oneWordLimit
	case token.GEQ:
		return false, c > 1 && c <= oneWordLimit+1
	}
	return false, false
}

// condGuardsWidth reports whether a branch condition being true bounds
// some variable to ≤ 64: a width-ok comparison, an && chain containing
// one, or a call to a guard-predicate function.
func (p *Package) condGuardsWidth(cond ast.Expr, guardPreds map[*types.Func]bool) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return p.condGuardsWidth(e.X, guardPreds) || p.condGuardsWidth(e.Y, guardPreds)
		}
		ok, _ := p.widthCmp(e)
		return ok
	case *ast.CallExpr:
		if fn := p.moduleFunc(e); fn != nil && guardPreds[fn] {
			return true
		}
	}
	return false
}

// condBailsWidth reports whether a branch condition being true means the
// width cap is exceeded (the `if n > 64` half of an early bailout). ||
// chains count when any disjunct bails — `if n < 0 || n > 64`.
func (p *Package) condBailsWidth(cond ast.Expr) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LOR {
			return p.condBailsWidth(e.X) || p.condBailsWidth(e.Y)
		}
		_, bail := p.widthCmp(e)
		return bail
	}
	return false
}

// terminates reports whether a block always leaves the enclosing
// function (ends in return or panic) — the bailout shape.
func terminates(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// ExportFacts implements FactExporter. Three fact kinds feed the module
// pass: "widthcheck" (panics on n > 64, package-prefixed message),
// "guardpred" (bool result includes an n ≤ 64 conjunct), and "caps"
// (error result non-nil when n exceeds a ≤ 64 cap).
func (a MaskWidth) ExportFacts(pkg *Package, facts *FactStore) {
	if pkg.TypesInfo == nil {
		return
	}
	for _, f := range pkg.nonTestFiles() {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if kind, detail := pkg.classifyGuardFn(fd, fn); kind != "" {
				facts.Export(Fact{
					Package:  pkg.Path,
					Object:   FuncKey(fn),
					Analyzer: "maskwidth",
					Kind:     kind,
					Detail:   detail,
					Pos:      pkg.Fset.Position(fd.Pos()),
				})
			}
		}
	}
}

// classifyGuardFn decides whether fn is itself a width guard: a
// "widthcheck" (bails by panicking), a "caps" (bails by returning its
// error result), or a "guardpred" (returns a bool that implies the
// bound). Empty kind means none.
func (p *Package) classifyGuardFn(fd *ast.FuncDecl, fn *types.Func) (kind, detail string) {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return "", ""
	}
	// guardpred: single bool result whose returned expression carries a
	// width-ok conjunct (an `n <= 64 && …` shape).
	if sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool]) {
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 || found {
				return !found
			}
			if p.condGuardsWidth(ret.Results[0], nil) {
				found = true
			}
			return !found
		})
		if found {
			return "guardpred", "bool result implies n ≤ 64"
		}
	}
	// widthcheck / caps: a TOP-LEVEL if whose condition bails on width
	// and whose body terminates — it must dominate every successful
	// return (a bailout nested under another condition, like club's
	// FastPath-only check, guards nothing for most callers). Panic body
	// → widthcheck; error-returning function → caps.
	bails := false
	for _, st := range fd.Body.List {
		ifs, ok := st.(*ast.IfStmt)
		if !ok {
			continue
		}
		if p.condBailsWidth(ifs.Cond) && terminates(ifs.Body) {
			bails = true
			break
		}
	}
	if !bails {
		return "", ""
	}
	if errorResult(fn) >= 0 {
		return "caps", "returns error when n exceeds the one-word cap"
	}
	if sig.Results().Len() == 0 {
		return "widthcheck", "panics when n exceeds the one-word cap"
	}
	return "", ""
}

// CheckModule implements ModuleAnalyzer: seed the limited set from the
// configured APIs, run the taint fixpoint, report unguarded call sites.
func (a MaskWidth) CheckModule(m *Module) []Diagnostic {
	// Resolve guard-function facts back to *types.Func for fast lookup.
	guardPreds := make(map[*types.Func]bool)
	guardCalls := make(map[*types.Func]bool) // widthcheck + caps: a guarding statement shape
	m.Graph.Walk(func(node *CallNode) {
		for _, f := range m.Facts.Select(node.Pkg.Path, FuncKey(node.Fn), "maskwidth", "") {
			switch f.Kind {
			case "guardpred":
				guardPreds[node.Fn] = true
			case "widthcheck", "caps":
				guardCalls[node.Fn] = true
			}
		}
	})

	// Seed the limited set. limited[fn] names the mask API the limit was
	// inherited from, for diagnostics.
	limited := make(map[*types.Func]string)
	m.Graph.Walk(func(node *CallNode) {
		for _, api := range a.APIs {
			if strings.HasSuffix(node.Pkg.Path, api.PkgSuffix) && FuncKey(node.Fn) == api.Func {
				limited[node.Fn] = node.Pkg.Name + "." + FuncKey(node.Fn)
			}
		}
	})

	// Taint fixpoint: an unguarded call to a limited function makes the
	// caller limited. Deterministic because Walk order is fixed and the
	// map only grows; the loop is bounded by the call-graph depth.
	for changed := true; changed; {
		changed = false
		m.Graph.Walk(func(node *CallNode) {
			if _, already := limited[node.Fn]; already {
				return
			}
			for _, e := range node.Calls {
				origin, isLimited := limited[e.Callee]
				if !isLimited {
					continue
				}
				if node.Pkg.callSiteGuarded(node.Decl, e.Pos, guardPreds, guardCalls) {
					continue
				}
				limited[node.Fn] = origin
				changed = true
				return
			}
		})
	}

	// Inventory pass: one diagnostic per unguarded call edge into the
	// limited set, one "guarded" fact per guarded edge.
	var out []Diagnostic
	m.Graph.Walk(func(node *CallNode) {
		for _, e := range node.Calls {
			origin, isLimited := limited[e.Callee]
			if !isLimited {
				continue
			}
			calleeNode := m.Graph.Nodes[e.Callee]
			calleeName := calleeNode.Pkg.Name + "." + FuncKey(e.Callee)
			if node.Pkg.callSiteGuarded(node.Decl, e.Pos, guardPreds, guardCalls) {
				m.Facts.Export(Fact{
					Package:  node.Pkg.Path,
					Object:   FuncKey(node.Fn),
					Analyzer: "maskwidth",
					Kind:     "guarded",
					Detail:   "guarded call to " + calleeName,
					Pos:      node.Pkg.Fset.Position(e.Pos),
				})
				continue
			}
			via := ""
			if calleeName != origin {
				via = " via " + calleeName
			}
			out = append(out, Diagnostic{
				Pos:      node.Pkg.Fset.Position(e.Pos),
				Analyzer: a.Name(),
				Message: fmt.Sprintf("one-word mask inventory: %s.%s feeds an unguarded n into %s%s (limit n ≤ 64); multi-word bitset worklist",
					node.Pkg.Name, FuncKey(node.Fn), origin, via),
			})
		}
	})
	return out
}

// callSiteGuarded reports whether the call at pos inside decl is
// dominated by a width guard: an enclosing then-branch whose condition
// bounds n, or a preceding bailout/width-check statement in an enclosing
// block.
func (p *Package) callSiteGuarded(decl *ast.FuncDecl, pos token.Pos, guardPreds, guardCalls map[*types.Func]bool) bool {
	guarded := false
	inspectWithStack(decl, func(n ast.Node, stack []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() != pos || guarded {
			return
		}
		// Walk outward over the enclosing nodes.
		for i := len(stack) - 1; i >= 0 && !guarded; i-- {
			switch enc := stack[i].(type) {
			case *ast.IfStmt:
				// Inside the then-branch of a width-ok condition? (The
				// child on the path must be the Body, not Cond/Else.)
				if i+1 < len(stack) && stack[i+1] == enc.Body && p.condGuardsWidth(enc.Cond, guardPreds) {
					guarded = true
				}
			case *ast.BlockStmt:
				// A preceding sibling statement that bails or checks.
				// capsErr tracks `n, err := capsFn(…)` assignments so the
				// split form — assignment, then `if err != nil { return }`
				// — guards everything after the if.
				var child ast.Node = call
				if i+1 < len(stack) {
					child = stack[i+1]
				}
				capsErr := map[string]bool{}
				for _, st := range enc.List {
					if st == child || st.End() > call.Pos() {
						break
					}
					if p.stmtGuardsWidth(st, guardCalls) {
						guarded = true
						break
					}
					p.trackCapsAssign(st, guardCalls, capsErr)
					if ifs, ok := st.(*ast.IfStmt); ok && terminates(ifs.Body) && condChecksErrVar(ifs.Cond, capsErr) {
						guarded = true
						break
					}
				}
			}
		}
	})
	return guarded
}

// stmtGuardsWidth reports whether a statement, once executed, bounds n
// for everything after it: an early bailout `if n > C { return/panic }`,
// a caps-function bailout `if err := capsFn(…); err != nil { return }`,
// or a bare call to a panicking width-check function.
func (p *Package) stmtGuardsWidth(st ast.Stmt, guardCalls map[*types.Func]bool) bool {
	switch s := st.(type) {
	case *ast.IfStmt:
		if !terminates(s.Body) {
			return false
		}
		if p.condBailsWidth(s.Cond) {
			return true
		}
		// `if err := capsFn(…); err != nil { return … }` — the caps call
		// may sit in the init statement or an enclosing assignment.
		found := false
		check := func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := p.moduleFunc(call); fn != nil && guardCalls[fn] {
					found = true
					return false
				}
			}
			return !found
		}
		if s.Init != nil {
			ast.Inspect(s.Init, check)
		}
		if !found {
			ast.Inspect(s.Cond, check)
		}
		return found
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if fn := p.moduleFunc(call); fn != nil && guardCalls[fn] {
				return true
			}
		}
	}
	return false
}

// trackCapsAssign records, in capsErr, the error variable(s) a statement
// binds to the result of a caps function — the first half of the split
// `n, err := capsFn(…)` / `if err != nil { return }` guard.
func (p *Package) trackCapsAssign(st ast.Stmt, guardCalls map[*types.Func]bool, capsErr map[string]bool) {
	asg, ok := st.(*ast.AssignStmt)
	if !ok || len(asg.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := p.moduleFunc(call)
	if fn == nil || !guardCalls[fn] {
		return
	}
	idx := errorResult(fn)
	if idx < 0 || idx >= len(asg.Lhs) {
		return
	}
	if id, ok := asg.Lhs[idx].(*ast.Ident); ok && id.Name != "_" {
		capsErr[id.Name] = true
	}
}

// condChecksErrVar reports whether cond is `<errvar> != nil` (either
// operand order) for a tracked caps-error variable.
func condChecksErrVar(cond ast.Expr, capsErr map[string]bool) bool {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if id, ok := ast.Unparen(side).(*ast.Ident); ok && capsErr[id.Name] {
			return true
		}
	}
	return false
}
