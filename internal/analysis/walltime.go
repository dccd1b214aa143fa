package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// WallTime bans wall-clock readings from the result-producing paths of
// the algorithm packages (anneal, grover, qsim, fastoracle, kplex, core). A
// time.Now / time.Since value that steers control flow or lands in an
// output value makes results depend on host speed and scheduling —
// unreproducible by construction. Wall time may only flow into the
// designated metrics fields (WallTime, Elapsed, QPUTime, ...) or into
// logging; a timer anchor (`start := time.Now()`) is fine because only
// its downstream uses matter. A deliberate wall-clock contract (the
// hybrid solver's MinRuntime floor) takes //lint:allow walltime with a
// reason.
type WallTime struct{}

// Name implements Analyzer.
func (WallTime) Name() string { return "walltime" }

// Doc implements Analyzer.
func (WallTime) Doc() string {
	return "wall-clock readings in the algorithm packages may only feed metrics fields or logging"
}

// wallTimePackages are the import-path suffixes subject to the check.
// The observability layer (/obs) is included because its span stream is
// part of the deterministic output contract: clock readings there may
// only land in the Elapsed annotation, never in ordering or content.
// kplex holds the exact branch-and-bound, whose wave schedule must not
// depend on host speed.
var wallTimePackages = []string{"/anneal", "/grover", "/qsim", "/fastoracle", "/kplex", "/core", "/obs"}

// wallTimeMetricsFields are field names understood to be reporting-only:
// assigning a clock reading to them is the sanctioned sink.
var wallTimeMetricsFields = map[string]bool{
	"Elapsed":   true,
	"WallTime":  true,
	"QPUTime":   true,
	"Runtime":   true,
	"Duration":  true,
	"Timestamp": true,
}

// Check implements Analyzer.
func (a WallTime) Check(pkg *Package) []Diagnostic {
	if pkg.TypesInfo == nil || !isWallTimePackage(pkg.Path) {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.nonTestFiles() {
		inspectWithStack(f.AST, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			name, ok := pkg.timeClockCall(call)
			if !ok {
				return
			}
			if pkg.wallTimeAllowed(call, name, stack) {
				return
			}
			out = append(out, pkg.report(a, call,
				"time.%s flows into a result-producing path; wall time may only feed metrics fields or logging", name))
		})
	}
	return out
}

func isWallTimePackage(path string) bool {
	for _, suffix := range wallTimePackages {
		if strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// timeClockCall reports whether the call reads the wall clock
// (time.Now or time.Since) and returns the function name.
func (p *Package) timeClockCall(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return "", false
	}
	if name := fn.Name(); name == "Now" || name == "Since" {
		return name, true
	}
	return "", false
}

// wallTimeAllowed classifies the syntactic context of a clock call.
// Allowed sinks:
//   - argument to time.Since / (time.Time).Sub — the anchor-to-duration
//     step, judged at the outer call instead;
//   - `local := time.Now()` — a timer anchor; its reading only matters
//     where the derived duration goes;
//   - assignment to a metrics field (x.Elapsed = time.Since(start));
//   - composite literal entry keyed by a metrics field;
//   - argument to fmt printing or log methods — logging.
func (p *Package) wallTimeAllowed(call *ast.CallExpr, name string, stack []ast.Node) bool {
	parent := nearestNonParen(stack)
	switch ctx := parent.(type) {
	case *ast.CallExpr:
		if s, ok := p.timeClockCall(ctx); ok && s == "Since" {
			return true
		}
		if sel, ok := ast.Unparen(ctx.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Sub" {
				return true
			}
			if p.isLoggingCall(ctx) {
				return true
			}
		}
		if p.isLoggingCall(ctx) {
			return true
		}
	case *ast.AssignStmt:
		for _, lhs := range ctx.Lhs {
			switch dst := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				if name == "Now" {
					return true // timer anchor
				}
			case *ast.SelectorExpr:
				if wallTimeMetricsFields[dst.Sel.Name] {
					return true
				}
			}
		}
	case *ast.KeyValueExpr:
		if key, ok := ctx.Key.(*ast.Ident); ok && wallTimeMetricsFields[key.Name] {
			return true
		}
	}
	return false
}

// isLoggingCall reports whether the call is fmt printing or a method on
// a log-ish receiver.
func (p *Package) isLoggingCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if fn, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt", "log", "log/slog":
			return true
		}
	}
	return false
}

// nearestNonParen returns the innermost enclosing node that is not a
// parenthesis.
func nearestNonParen(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		return stack[i]
	}
	return nil
}
