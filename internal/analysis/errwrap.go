package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// ErrWrap is the static half of the exit-code contract (DESIGN.md §4):
// cmd/repro classifies failures by errors.Is against the core sentinels
// (ErrBadSpec, ErrTooLarge, ErrInfeasible, ErrCanceled), so every error
// that escapes core.Solve* must keep a sentinel in its %w chain. Three
// shapes break the chain silently:
//
//  1. chain loss (reachable from the roots, module-wide): fmt.Errorf
//     that consumes an error argument without a %w verb — the cause is
//     flattened to text and errors.Is stops matching. `%v` on an error
//     is almost always this bug.
//  2. unchained origin (the root's own package only): fmt.Errorf with
//     no %w at all, or errors.New, inside a function reachable from a
//     root. An error born in core without a sentinel can never satisfy
//     the exit-code contract. Lower-layer packages are exempt — they
//     cannot import core's sentinels (import cycle); core must attach
//     the sentinel when their errors cross the Solve boundary, which is
//     exactly what rule 1 polices.
//  3. discarded solver errors (module-wide): a blank-assigned error
//     result of a ctx-aware module call (`res, _ := grover.Search(ctx, …)`)
//     throws away the one value that reports ErrCanceled; cancellation
//     becomes indistinguishable from success.
type ErrWrap struct {
	Roots []CallRoot
	// Sentinels names the error sentinels of the root package, for
	// diagnostics.
	Sentinels []string
}

// DefaultErrWrap returns the analyzer wired to the solver entry points
// and core's sentinel set.
func DefaultErrWrap() ErrWrap {
	return ErrWrap{
		Roots:     []CallRoot{{PkgSuffix: "internal/core", FuncPrefix: "Solve"}},
		Sentinels: []string{"ErrBadSpec", "ErrTooLarge", "ErrInfeasible", "ErrCanceled"},
	}
}

// Name implements ModuleAnalyzer.
func (ErrWrap) Name() string { return "errwrap" }

// Doc implements ModuleAnalyzer.
func (ErrWrap) Doc() string {
	return "errors escaping core.Solve* must chain a typed sentinel via %w; no %v-flattened causes, no blank-assigned solver errors"
}

// CheckModule implements ModuleAnalyzer.
func (a ErrWrap) CheckModule(m *Module) []Diagnostic {
	roots, rootNames := rootSet(m.Graph, a.Roots)
	reach := m.Graph.Reachable(roots)

	// The root package(s): where rule 2 applies.
	rootPkgs := make(map[string]bool)
	for _, r := range roots {
		if node := m.Graph.Nodes[r]; node != nil {
			rootPkgs[node.Pkg.Path] = true
		}
	}
	sentinels := strings.Join(a.Sentinels, "/")

	var out []Diagnostic
	m.Graph.Walk(func(node *CallNode) {
		pkg := node.Pkg
		if pkg.TypesInfo == nil || pkg.Name == "main" {
			return
		}

		// Rule 3, module-wide: blank-assigned error of a ctx-aware
		// module call.
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok || len(asg.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := pkg.moduleFunc(call)
			if callee == nil || ctxParamIndex(callee) < 0 {
				return true
			}
			errIdx := errorResult(callee)
			if errIdx < 0 || errIdx >= len(asg.Lhs) {
				return true
			}
			if id, ok := asg.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
				out = append(out, Diagnostic{
					Pos:      pkg.Fset.Position(asg.Pos()),
					Analyzer: a.Name(),
					Message: fmt.Sprintf("error result of ctx-aware %s.%s discarded by blank assignment; a canceled context's error would be lost",
						callee.Pkg().Name(), callee.Name()),
				})
			}
			return true
		})

		root, reachable := reach[node.Fn]
		if !reachable {
			return
		}
		rootName := rootNames[root]
		inRootPkg := rootPkgs[pkg.Path]

		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch kind := errorConstructor(pkg, call); kind {
			case "errors.New":
				// Rule 2 only: errors.New can never chain.
				if inRootPkg {
					out = append(out, Diagnostic{
						Pos:      pkg.Fset.Position(call.Pos()),
						Analyzer: a.Name(),
						Message: fmt.Sprintf("errors.New in %s.%s (reachable from %s) cannot chain a sentinel; use fmt.Errorf with %%w and one of %s",
							pkg.Name, FuncKey(node.Fn), rootName, sentinels),
					})
				}
			case "fmt.Errorf":
				format, ok := stringLit(call.Args[0])
				if !ok {
					return true // dynamic format: out of static reach
				}
				wraps := strings.Contains(format, "%w")
				if !wraps && pkg.errorfConsumesError(call) {
					// Rule 1: an error argument flattened to text.
					out = append(out, Diagnostic{
						Pos:      pkg.Fset.Position(call.Pos()),
						Analyzer: a.Name(),
						Message: fmt.Sprintf("fmt.Errorf in %s.%s (reachable from %s) formats an error argument without %%w; the cause is flattened and errors.Is against %s stops matching",
							pkg.Name, FuncKey(node.Fn), rootName, sentinels),
					})
				} else if !wraps && inRootPkg {
					// Rule 2: error born in the root package, unchained.
					out = append(out, Diagnostic{
						Pos:      pkg.Fset.Position(call.Pos()),
						Analyzer: a.Name(),
						Message: fmt.Sprintf("fmt.Errorf in %s.%s (reachable from %s) chains no sentinel; wrap one of %s with %%w so the exit-code contract holds",
							pkg.Name, FuncKey(node.Fn), rootName, sentinels),
					})
				}
			}
			return true
		})
	})
	return out
}

// errorConstructor classifies a call as "fmt.Errorf", "errors.New", or
// "" — the two ways the module mints errors.
func errorConstructor(p *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return ""
	}
	fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	switch {
	case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
		return "fmt.Errorf"
	case fn.Pkg().Path() == "errors" && fn.Name() == "New":
		return "errors.New"
	}
	return ""
}

// stringLit unquotes a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind.String() != "STRING" {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// errorfConsumesError reports whether any variadic argument of the
// Errorf call has static type error — the argument whose chain a
// %w-less format would flatten.
func (p *Package) errorfConsumesError(call *ast.CallExpr) bool {
	errType := types.Universe.Lookup("error").Type()
	iface, _ := errType.Underlying().(*types.Interface)
	for _, arg := range call.Args[1:] {
		tv, ok := p.TypesInfo.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		if types.Identical(tv.Type, errType) || (iface != nil && types.Implements(tv.Type, iface)) {
			return true
		}
	}
	return false
}
