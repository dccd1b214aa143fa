package exp

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/graph"
	"repro/internal/qubo"
)

// Fig13 reproduces the chain-size study: binary variable count, physical
// qubit count and average chain size as the graph size grows (k=3, R=2).
func Fig13(cfg Config) (Result, error) {
	sizes := []int{10, 15, 20, 25, 30, 35, 40, 43}
	if cfg.Quick {
		sizes = []int{10, 15, 20}
	}
	f := &Figure{
		ID:     "fig13",
		Title:  "Variable counts and chain size vs graph size n (Fig. 13, k=3, R=2)",
		XLabel: "graph size n",
		YLabel: "count (variables, physical qubits) / average chain size",
	}
	vars := Series{Name: "binary variables (O(n log n))"}
	phys := Series{Name: "physical qubits"}
	chain := Series{Name: "average chain size"}
	for _, n := range sizes {
		d := graph.ChainSweepDataset(n)
		enc, err := qubo.FormulateMKP(AnnealInput(d), 3, 2)
		if err != nil {
			return Result{}, fmt.Errorf("n=%d: %w", n, err)
		}
		emb, _, err := embedding.EmbedOnHardware(enc.Model, cfg.seed())
		if err != nil {
			return Result{}, fmt.Errorf("n=%d: %w", n, err)
		}
		s := emb.Stats()
		vars.X = append(vars.X, float64(n))
		vars.Y = append(vars.Y, float64(enc.Model.N()))
		phys.X = append(phys.X, float64(n))
		phys.Y = append(phys.Y, float64(s.PhysicalQubits))
		chain.X = append(chain.X, float64(n))
		chain.Y = append(chain.Y, s.AvgChain)
	}
	f.Series = []Series{vars, phys, chain}
	f.Notes = append(f.Notes,
		"hardware: Chimera-class cells of degree 10 (Advantage uses Pegasus, degree 15), so chains run longer than the paper's in absolute terms; trends match",
	)
	return Result{Figure: f}, nil
}
