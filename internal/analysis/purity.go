package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Purity is the static half of the fast-vs-circuit equivalence contract
// (DESIGN.md §7): every function reachable from a determinism root —
// oracle.TruthTable, the fastoracle.Evaluator methods, core.runTKPPred,
// kplex.BBOpt — must not write package-level state. A hidden global cache or counter
// on those paths couples one run's answers to another's, which the
// sampled dynamic equivalence tests cannot reliably catch.
//
// It runs in two passes. The per-package fact pass records a "mutates"
// fact for every function that directly writes a package-level variable
// (assignment, ++/--, or a mutating method call such as Store/Lock on a
// package-level receiver). The module pass walks the call graph from the
// roots and reports every reachable mutator at its write site, plus —
// consuming the exported facts across package boundaries — every
// cross-package call from a reachable function to a mutator.
type Purity struct {
	Roots []PurityRoot
}

// PurityRoot selects root functions by package path suffix plus function
// name, optionally constrained to methods of one receiver type. Func "*"
// selects every exported function/method the other constraints match.
type PurityRoot struct {
	PkgSuffix string // import path suffix, e.g. "internal/oracle"
	Recv      string // receiver type name; empty matches any (or none)
	Func      string // function name, or "*" for every exported one
}

// DefaultPurity returns the analyzer wired to the repo's determinism
// roots.
func DefaultPurity() Purity {
	return Purity{Roots: []PurityRoot{
		{PkgSuffix: "internal/oracle", Func: "TruthTable"},
		{PkgSuffix: "internal/fastoracle", Recv: "Evaluator", Func: "*"},
		{PkgSuffix: "internal/fastoracle", Recv: "Table", Func: "*"},
		{PkgSuffix: "internal/core", Func: "runTKPPred"},
		// The exact classical entry point: greedy, kernel and the
		// wave-parallel branch-and-bound behind it.
		{PkgSuffix: "internal/kplex", Func: "BBOpt"},
		// The observability layer sits on the solver hot paths; all of
		// its state (sequence numbers, counters, registries) must stay
		// instance-carried so two solves never couple through a global.
		{PkgSuffix: "internal/obs", Recv: "Trace", Func: "*"},
		{PkgSuffix: "internal/obs", Recv: "Metrics", Func: "*"},
	}}
}

// Name implements ModuleAnalyzer.
func (Purity) Name() string { return "purity" }

// Doc implements ModuleAnalyzer.
func (Purity) Doc() string {
	return "functions reachable from the oracle/fast-path determinism roots must not write package-level state"
}

// mutatingMethods are method names that write through their receiver
// (sync/atomic and sync primitives); calling one on a package-level
// variable is a package-state write.
var mutatingMethods = map[string]bool{
	"Store": true, "Swap": true, "Add": true, "CompareAndSwap": true,
	"Delete": true, "LoadOrStore": true, "LoadAndDelete": true,
	"Lock": true, "Unlock": true, "Do": true, "Wait": true,
}

// ExportFacts implements FactExporter: one "mutates" fact per
// (function, write site) for direct package-level writes.
func (Purity) ExportFacts(pkg *Package, facts *FactStore) {
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
			for _, w := range pkg.packageLevelWrites(fd.Body) {
				facts.Export(Fact{
					Package:  pkg.Path,
					Object:   FuncKey(fn),
					Analyzer: "purity",
					Kind:     "mutates",
					Detail:   w.what,
					Pos:      pkg.Fset.Position(w.node.Pos()),
				})
			}
		}
	}
}

// write is one detected package-level state write.
type write struct {
	node ast.Node
	what string // description of the written variable
}

// packageLevelWrites scans a function body (literals included) for
// writes to package-level variables of any analyzed package.
func (p *Package) packageLevelWrites(body *ast.BlockStmt) []write {
	var out []write
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if v := p.packageLevelTarget(lhs); v != nil {
					out = append(out, write{node: node, what: v.Pkg().Name() + "." + v.Name()})
				}
			}
		case *ast.IncDecStmt:
			if v := p.packageLevelTarget(node.X); v != nil {
				out = append(out, write{node: node, what: v.Pkg().Name() + "." + v.Name()})
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr)
			if !ok || !mutatingMethods[sel.Sel.Name] {
				return true
			}
			if _, isFn := p.TypesInfo.Uses[sel.Sel].(*types.Func); !isFn {
				return true
			}
			if v := p.packageLevelTarget(sel.X); v != nil {
				out = append(out, write{node: node, what: v.Pkg().Name() + "." + v.Name() + "." + sel.Sel.Name})
			}
		}
		return true
	})
	return out
}

// packageLevelTarget resolves an lvalue-ish expression to the
// package-level variable it ultimately addresses, or nil.
func (p *Package) packageLevelTarget(e ast.Expr) *types.Var {
	obj := p.rootObj(e)
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	return v
}

// CheckModule implements ModuleAnalyzer.
func (a Purity) CheckModule(m *Module) []Diagnostic {
	var roots []*types.Func
	var rootNames = make(map[*types.Func]string)
	m.Graph.Walk(func(node *CallNode) {
		for _, r := range a.Roots {
			if r.matches(node) {
				if _, have := rootNames[node.Fn]; !have {
					roots = append(roots, node.Fn)
					rootNames[node.Fn] = node.Pkg.Name + "." + FuncKey(node.Fn)
				}
			}
		}
	})
	reach := m.Graph.Reachable(roots)

	var out []Diagnostic
	m.Graph.Walk(func(node *CallNode) {
		root, ok := reach[node.Fn]
		if !ok {
			return
		}
		rootName := rootNames[root]
		// Direct writes in this reachable function, from its own facts.
		for _, f := range m.Facts.Select(node.Pkg.Path, FuncKey(node.Fn), "purity", "mutates") {
			out = append(out, Diagnostic{
				Pos:      f.Pos,
				Analyzer: a.Name(),
				Message: node.Pkg.Name + "." + FuncKey(node.Fn) +
					" writes package-level " + f.Detail +
					" but is reachable from determinism root " + rootName,
			})
		}
		// Cross-package calls to a mutator: the importing package's
		// diagnostic depends on the callee package's exported fact.
		for _, e := range node.Calls {
			callee := m.Graph.Nodes[e.Callee]
			if callee == nil || callee.Pkg.Path == node.Pkg.Path {
				continue
			}
			facts := m.Facts.Select(callee.Pkg.Path, FuncKey(e.Callee), "purity", "mutates")
			if len(facts) == 0 {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      node.Pkg.Fset.Position(e.Pos),
				Analyzer: a.Name(),
				Message: "call to " + callee.Pkg.Name + "." + FuncKey(e.Callee) +
					" (writes package-level " + facts[0].Detail + ") on a path from determinism root " + rootName,
			})
		}
	})
	return out
}

// matches reports whether a call-graph node satisfies the root spec.
func (r PurityRoot) matches(node *CallNode) bool {
	if !strings.HasSuffix(node.Pkg.Path, r.PkgSuffix) {
		return false
	}
	key := FuncKey(node.Fn)
	recv, name := "", key
	if i := strings.IndexByte(key, '.'); i >= 0 {
		recv, name = key[:i], key[i+1:]
	}
	if r.Recv != "" && recv != r.Recv {
		return false
	}
	if r.Func == "*" {
		return ast.IsExported(name)
	}
	return name == r.Func
}
