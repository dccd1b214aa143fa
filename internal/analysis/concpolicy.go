package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// The concurrency primitives the policy vocabulary knows. A policy entry
// blesses a package for a subset of these; everything else in the
// package is reported.
//
//	go        — go statements
//	chan      — channel types, construction, sends, receives, selects
//	mutex     — sync.Mutex / sync.RWMutex / sync.Locker
//	waitgroup — sync.WaitGroup
//	once      — sync.Once and the sync.OnceFunc/OnceValue(s) helpers
//	atomic    — anything from sync/atomic
//	syncmap   — sync.Map
//	cond      — sync.Cond
//	pool      — sync.Pool
var concPrimitives = map[string]bool{
	"go":        true,
	"chan":      true,
	"mutex":     true,
	"waitgroup": true,
	"once":      true,
	"atomic":    true,
	"syncmap":   true,
	"cond":      true,
	"pool":      true,
}

// ConcRule blesses one package — matched by import-path suffix, the same
// convention as CallRoot — for a set of primitives, with the reason
// recorded next to the grant.
type ConcRule struct {
	Package string   `json:"package"`
	Allow   []string `json:"allow"`
	Reason  string   `json:"reason"`
}

// ConcurrencyPolicy is the declarative concurrency contract: which
// packages may hold which raw primitives. CONC_POLICY.json at the module
// root is the checked-in instance (pinned to DefaultConcurrencyPolicy by
// test); a new concurrent package earns its entry by stating what it
// needs and why, and the analyzers hold it to exactly that.
type ConcurrencyPolicy struct {
	Version int        `json:"version"`
	Rules   []ConcRule `json:"packages"`
}

// DefaultConcurrencyPolicy is the contract of the current tree: the
// worker pool is the only solver-side spawner, the metrics its workers
// bump hold only coordination-free primitives, and the daemon owns its
// request lifecycle.
func DefaultConcurrencyPolicy() *ConcurrencyPolicy {
	return &ConcurrencyPolicy{
		Version: 1,
		Rules: []ConcRule{
			{
				Package: "internal/parallel",
				Allow:   []string{"go", "mutex", "waitgroup", "atomic"},
				Reason: "the deterministic worker-pool substrate: hand-rolled goroutines joined by " +
					"WaitGroup, an atomic chunk cursor, and one mutex guarding first-panic capture",
			},
			{
				Package: "internal/obs",
				Allow:   []string{"mutex", "atomic"},
				Reason: "metrics counters and gauges are bumped from pool workers; atomic cells and " +
					"one registry mutex keep snapshots consistent without ordering effects",
			},
			{
				Package: "internal/server",
				Allow:   []string{"go", "chan", "mutex", "atomic"},
				Reason: "the solver daemon's admission and lifecycle: one http.Serve goroutine " +
					"joined by channel receive before Serve returns, a buffered-channel admission " +
					"semaphore, mutexes guarding the result cache and trace ring, and atomic " +
					"request-id/queue-depth counters",
			},
		},
	}
}

// LoadConcurrencyPolicy reads and validates a policy file.
func LoadConcurrencyPolicy(path string) (*ConcurrencyPolicy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("analysis: read concurrency policy: %w", err)
	}
	var p ConcurrencyPolicy
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("analysis: parse concurrency policy %s: %w", path, err)
	}
	if err := p.validate(); err != nil {
		return nil, fmt.Errorf("analysis: invalid concurrency policy %s: %w", path, err)
	}
	return &p, nil
}

// validate rejects entries without a package, without a reason, or
// naming primitives outside the vocabulary — a policy grant must say
// what it grants and why.
func (p *ConcurrencyPolicy) validate() error {
	for i, r := range p.Rules {
		if r.Package == "" {
			return fmt.Errorf("entry %d has no package", i)
		}
		if strings.TrimSpace(r.Reason) == "" {
			return fmt.Errorf("entry for %s has no reason; every grant documents itself", r.Package)
		}
		for _, prim := range r.Allow {
			if !concPrimitives[prim] {
				return fmt.Errorf("entry for %s allows unknown primitive %q", r.Package, prim)
			}
		}
	}
	return nil
}

// rule returns the entry matching the package path, or nil.
func (p *ConcurrencyPolicy) rule(pkgPath string) *ConcRule {
	if p == nil {
		return nil
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		if pkgPath == r.Package || strings.HasSuffix(pkgPath, "/"+r.Package) {
			return r
		}
	}
	return nil
}

// Allows reports whether the policy blesses pkgPath for the primitive.
func (p *ConcurrencyPolicy) Allows(pkgPath, prim string) bool {
	r := p.rule(pkgPath)
	if r == nil {
		return false
	}
	for _, a := range r.Allow {
		if a == prim {
			return true
		}
	}
	return false
}

// ConcPolicy replaces the old rawgo analyzer's hard-coded "only
// internal/parallel" rule with the declarative ConcurrencyPolicy: every
// raw concurrency primitive must appear in a package the policy blesses
// for exactly that primitive, so the REPRO_WORKERS / SetWorkers knob
// stays authoritative and scheduling order cannot leak into results from
// an unvetted corner of the tree.
//
// The check is interprocedural, not just syntactic: the per-package pass
// exports a "spawns" fact for every function containing a go statement
// (and a "locks" fact per mutex acquisition, consumed by lockcheck), and
// the module pass flags a cross-package call from an unblessed package
// into an unblessed spawner — a helper cannot launder a goroutine past
// the policy.
type ConcPolicy struct {
	Policy *ConcurrencyPolicy
}

// DefaultConcPolicy returns the analyzer wired to the checked-in policy.
func DefaultConcPolicy() ConcPolicy {
	return ConcPolicy{Policy: DefaultConcurrencyPolicy()}
}

// Name implements ModuleAnalyzer.
func (ConcPolicy) Name() string { return "concpolicy" }

// Doc implements ModuleAnalyzer.
func (ConcPolicy) Doc() string {
	return "raw concurrency primitives only in packages the concurrency policy (CONC_POLICY.json) blesses, and only the primitives each entry allows; spawning helpers are tracked across packages via facts"
}

// ExportFacts implements FactExporter.
func (ConcPolicy) ExportFacts(pkg *Package, facts *FactStore) {
	exportConcFacts(pkg, facts)
}

// CheckModule implements ModuleAnalyzer.
func (a ConcPolicy) CheckModule(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range m.Pkgs {
		out = append(out, a.checkPackage(pkg)...)
	}
	// Interprocedural rule: calling into a spawning function does not
	// launder the policy. Calls into blessed packages are the sanctioned
	// route; calls to an unblessed spawner from another unblessed package
	// are reported at the call site, on the strength of the callee's
	// exported "spawns" fact.
	m.Graph.Walk(func(node *CallNode) {
		pkg := node.Pkg
		if a.Policy.Allows(pkg.Path, "go") {
			return
		}
		for _, e := range node.Calls {
			cp := e.Callee.Pkg()
			if cp == nil || cp.Path() == pkg.Path || a.Policy.Allows(cp.Path(), "go") {
				continue
			}
			spawns := m.Facts.Select(cp.Path(), FuncKey(e.Callee), "concpolicy", "spawns")
			if len(spawns) == 0 {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      pkg.Fset.Position(e.Pos),
				Analyzer: a.Name(),
				Message: fmt.Sprintf("call to %s.%s spawns goroutines (spawns fact at line %d), and neither package is blessed for %q; fan out through a policy-blessed package",
					cp.Name(), FuncKey(e.Callee), spawns[0].Pos.Line, "go"),
			})
		}
	})
	return out
}

// checkPackage is the syntactic half: one finding per (top-level
// declaration, primitive), at the first occurrence, for every primitive
// the policy does not bless this package for.
func (a ConcPolicy) checkPackage(pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.nonTestFiles() {
		for _, decl := range f.AST.Decls {
			seen := make(map[string]bool)
			ast.Inspect(decl, func(n ast.Node) bool {
				prim, desc := pkg.concPrimitive(n)
				if prim == "" || seen[prim] || a.Policy.Allows(pkg.Path, prim) {
					return true
				}
				seen[prim] = true
				out = append(out, Diagnostic{
					Pos:      pkg.Fset.Position(n.Pos()),
					Analyzer: a.Name(),
					Message: fmt.Sprintf("%s in a package not blessed for %q; the concurrency policy (CONC_POLICY.json) names every package allowed to hold raw primitives — fan out through internal/parallel or add a reasoned policy entry",
						desc, prim),
				})
				return true
			})
		}
	}
	return out
}

// concPrimitive classifies one AST node as a use of a policy primitive,
// returning the primitive and a human-readable description ("" when the
// node is not one).
func (p *Package) concPrimitive(n ast.Node) (prim, desc string) {
	switch node := n.(type) {
	case *ast.GoStmt:
		return "go", "go statement"
	case *ast.SendStmt:
		return "chan", "channel send"
	case *ast.UnaryExpr:
		if node.Op == token.ARROW {
			return "chan", "channel receive"
		}
	case *ast.SelectStmt:
		return "chan", "select statement"
	case *ast.RangeStmt:
		if p.isChanExpr(node.X) {
			return "chan", "range over a channel"
		}
	case *ast.CallExpr:
		if p.isMakeChan(node) {
			return "chan", "channel construction"
		}
	case *ast.ChanType:
		return "chan", "channel type"
	case *ast.Ident:
		return p.syncIdent(node)
	}
	return "", ""
}

// syncIdent resolves an identifier against go/types and classifies
// references into the sync and sync/atomic packages: type names, package
// functions, and — via the method's receiver — field accesses like
// s.mu.Lock() where no sync selector is visible at the use site.
func (p *Package) syncIdent(id *ast.Ident) (prim, desc string) {
	if p.TypesInfo == nil {
		return "", ""
	}
	obj := p.TypesInfo.Uses[id]
	if obj == nil {
		obj = p.TypesInfo.Defs[id]
	}
	if obj == nil || obj.Pkg() == nil {
		return "", ""
	}
	switch obj.Pkg().Path() {
	case "sync":
		switch o := obj.(type) {
		case *types.TypeName:
			return syncTypePrimitive(o.Name())
		case *types.Func:
			if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil {
				t := sig.Recv().Type()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					return syncTypePrimitive(named.Obj().Name())
				}
				return "", ""
			}
			if strings.HasPrefix(o.Name(), "Once") {
				return "once", "sync." + o.Name() + " use"
			}
		}
	case "sync/atomic":
		return "atomic", "sync/atomic use"
	}
	return "", ""
}

// syncTypePrimitive maps a sync type name to its policy primitive.
func syncTypePrimitive(name string) (string, string) {
	switch name {
	case "Mutex", "RWMutex", "Locker":
		return "mutex", "sync." + name + " use"
	case "WaitGroup":
		return "waitgroup", "sync.WaitGroup use"
	case "Once":
		return "once", "sync.Once use"
	case "Map":
		return "syncmap", "sync.Map use"
	case "Cond":
		return "cond", "sync.Cond use"
	case "Pool":
		return "pool", "sync.Pool use"
	}
	return "", ""
}

// exportConcFacts records, for every declared function, the concurrency
// facts the module passes consume: one "spawns" fact per go statement
// and one "locks" fact per mutex acquisition (Detail carrying the lock's
// stable identity). ConcPolicy, GoLeak and LockCheck all export through
// this one helper — the FactStore collapses the duplicates — so each
// analyzer still works when run alone.
func exportConcFacts(pkg *Package, facts *FactStore) {
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
			key := FuncKey(fn)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.GoStmt:
					facts.Export(Fact{
						Package:  pkg.Path,
						Object:   key,
						Analyzer: "concpolicy",
						Kind:     "spawns",
						Detail:   "go statement",
						Pos:      pkg.Fset.Position(node.Pos()),
					})
				case *ast.CallExpr:
					if name, method := pkg.mutexCall(node, key); method == "Lock" || method == "RLock" {
						facts.Export(Fact{
							Package:  pkg.Path,
							Object:   key,
							Analyzer: "concpolicy",
							Kind:     "locks",
							Detail:   name,
							Pos:      pkg.Fset.Position(node.Pos()),
						})
					}
				}
				return true
			})
		}
	}
}

// mutexCall classifies a call as one of the four sync lock operations,
// returning the receiver lock's stable identity and the method name
// (Lock/RLock/Unlock/RUnlock), or two empty strings.
func (p *Package) mutexCall(call *ast.CallExpr, funcKey string) (name, method string) {
	if p.TypesInfo == nil {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	return p.lockIdentity(sel.X, funcKey), sel.Sel.Name
}

// lockIdentity renders a stable name for the lock an expression denotes:
// package-level vars as "pkg.name" and struct fields as
// "pkg.Type.field", so the same lock unifies across functions in the
// lock-order graph; function locals are scoped under the function key,
// where they can never alias another function's lock.
func (p *Package) lockIdentity(e ast.Expr, funcKey string) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		if obj, ok := p.TypesInfo.Uses[x].(*types.Var); ok && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return p.Name + "." + obj.Name()
			}
			return funcKey + "/" + obj.Name()
		}
	case *ast.SelectorExpr:
		if tv, ok := p.TypesInfo.Types[x.X]; ok && tv.Type != nil {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return p.Name + "." + named.Obj().Name() + "." + x.Sel.Name
			}
		}
	}
	return funcKey + "/" + types.ExprString(e)
}

// sortedLockSet renders a lock set in deterministic order.
func sortedLockSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// isChanExpr reports whether the expression's resolved type is a
// channel. Without type info it falls back to never matching (the range
// is then indistinguishable from a slice range).
func (p *Package) isChanExpr(e ast.Expr) bool {
	if p.TypesInfo == nil {
		return false
	}
	tv, ok := p.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isChanType(tv.Type)
}

// isMakeChan reports whether the call is make(chan ...). The syntactic
// ChanType check covers files without type information; the resolved
// type covers aliases.
func (p *Package) isMakeChan(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	if _, ok := call.Args[0].(*ast.ChanType); ok {
		return true
	}
	if p.TypesInfo != nil {
		if tv, ok := p.TypesInfo.Types[call.Args[0]]; ok && tv.Type != nil {
			return isChanType(tv.Type)
		}
	}
	return false
}

func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
