package core

// AnnealOptions tunes qaMKP (Algorithm 4). Zero values select the paper's
// defaults (R = 2, Δt = 1).
type AnnealOptions struct {
	// R is the penalty strength; must exceed 1 (Section IV-B3). The
	// paper's experimentally best value, 2, is the default.
	R float64
	// DeltaT is the per-shot anneal time, the analogue of the paper's
	// annealing time Δt in µs; each modelled microsecond buys
	// SweepsPerMicrosecond Monte-Carlo sweeps of the SQA substrate.
	// Default 1.
	DeltaT int
	// Shots is the number of anneals s; total modelled runtime is
	// DeltaT·Shots, exactly the paper's budget arithmetic. Default 100.
	Shots int
	Seed  int64
}

func (o *AnnealOptions) annealDefaults() AnnealOptions {
	out := AnnealOptions{}
	if o != nil {
		out = *o
	}
	if out.R == 0 {
		out.R = 2
	}
	if out.DeltaT <= 0 {
		out.DeltaT = 1
	}
	if out.Shots <= 0 {
		out.Shots = 100
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// SweepsPerMicrosecond calibrates the Δt analogue: one modelled µs of
// annealing time runs this many Monte-Carlo sweeps (DESIGN.md; a physical
// 1 µs anneal is a complete, if fast, evolution, not a single sweep).
const SweepsPerMicrosecond = 10

// QAResult is the outcome of qaMKP.
type QAResult struct {
	Set   []int // decoded vertex set of the best-cost assignment
	Size  int
	Valid bool    // the decoded set is a genuine k-plex
	Cost  float64 // best objective value (Eq. objective)

	// BestValidSet is the largest genuine k-plex decoded from ANY
	// readout, which need not be the best-cost one: the paper notes the
	// annealer can find the optimal solution without optimally
	// configuring the slack variables (Section IV-C).
	BestValidSet []int

	// Trace is the best cost after each shot — the anytime curve.
	Trace []float64

	// Model accounting (the paper's qubit-utilization story).
	Variables int // n + slack bits
	SlackVars int
}
