package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatCmp forbids exact == / != comparisons between floating-point or
// complex operands in the non-test files of the numeric packages (qsim,
// qubo, anneal, grover, fastoracle, kplex). Amplitudes, energies and QUBO
// coefficients are accumulated in different orders by different code paths; exact
// equality on them is a reproducibility landmine. Compare against a
// tolerance instead, or — where exact identity of an untouched value is
// genuinely intended — annotate the line with //lint:allow floatcmp.
type FloatCmp struct{}

// Name implements Analyzer.
func (FloatCmp) Name() string { return "floatcmp" }

// Doc implements Analyzer.
func (FloatCmp) Doc() string {
	return "no exact float/complex == or != in the numeric packages"
}

// floatCmpPackages are the import-path suffixes subject to the check.
// parallel and embedding joined the list when their reduction folds and
// chain-strength arithmetic became part of the reproducibility surface;
// kplex holds the exact branch-and-bound, whose answers must not depend
// on rounding.
var floatCmpPackages = []string{"/qsim", "/qubo", "/anneal", "/grover", "/fastoracle", "/kplex", "/parallel", "/embedding"}

// Check implements Analyzer.
func (a FloatCmp) Check(pkg *Package) []Diagnostic {
	if pkg.TypesInfo == nil || !isNumericPackage(pkg.Path) {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.nonTestFiles() {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if pkg.isFloatish(bin.X) || pkg.isFloatish(bin.Y) {
				out = append(out, pkg.report(a, bin,
					"exact floating-point comparison (%s); compare against a tolerance", bin.Op))
			}
			return true
		})
	}
	return out
}

func isNumericPackage(path string) bool {
	for _, suffix := range floatCmpPackages {
		if strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// isFloatish reports whether an expression's resolved type is (or has an
// underlying) float or complex basic type.
func (p *Package) isFloatish(e ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return basic.Info()&(types.IsFloat|types.IsComplex) != 0
}
