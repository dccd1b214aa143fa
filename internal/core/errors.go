package core

import "errors"

// Sentinel errors of the solver API. Every error returned by the Solve
// entry points (and the compatibility wrappers) wraps exactly one of
// these — or comes from a lower layer unchanged — so callers branch
// with errors.Is instead of string matching, and cmd/qmkp maps each to
// a distinct exit code.
var (
	// ErrBadSpec marks an invalid solve request: empty graph, k or T
	// out of range, unknown algorithm or sampler.
	ErrBadSpec = errors.New("core: bad solve spec")

	// ErrTooLarge marks an instance past a size cap: the gate-model
	// simulator's (n > MaxGateVertices vertex qubits: each probe sweeps
	// the oracle over all 2^n subsets), the CLI's exhaustive baselines'
	// (naive, qnclub), or the daemon's vertex and request-body caps. The
	// annealing and branch-and-bound paths have no cap of their own.
	ErrTooLarge = errors.New("core: instance too large")

	// ErrInfeasible marks a QTKP probe that verified absence: no
	// k-plex of size ≥ T exists. The TKPResult alongside it still
	// carries the full cost accounting of the probe.
	ErrInfeasible = errors.New("core: no k-plex of the requested size")

	// ErrCanceled marks a run cut short by context cancellation or
	// deadline. The result alongside it holds the best answer found
	// before the cut — the progressive semantics of the paper's qMKP
	// carry over to interruption. The cause (context.Canceled or
	// context.DeadlineExceeded) stays in the wrap chain.
	ErrCanceled = errors.New("core: solve canceled")
)
