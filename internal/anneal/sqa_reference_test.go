package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/qubo"
)

// sqaIsingReference is the SQA kernel as it stood before the exp memo,
// the once-per-run schedule, the kept local fields and the per-worker
// buffers: every shot allocates its own slices and evaluates β and J⊥
// per sweep, and every proposal recomputes its local field and calls
// math.Exp afresh. TestSQAMatchesReference pins sqaIsing to it bit for
// bit.
func sqaIsingReference(ctx context.Context, is *qubo.Ising, p Params, unembed func([]int8) ([]bool, float64)) (Result, error) {
	a := compileIsing(is)
	return runShotsReference(ctx, p, "sqa", func(shot int) shotOutcome {
		return sqaShotReference(a, p, unembed, shot)
	})
}

// runShotsReference is the shot fan-out without per-worker state.
func runShotsReference(ctx context.Context, p Params, kind string, run func(shot int) shotOutcome) (Result, error) {
	shots := make([]shotOutcome, p.Shots)
	done := make([]bool, p.Shots)
	parallel.For(p.Shots, 1, func(lo, hi int) {
		for shot := lo; shot < hi; shot++ { //ctx:boundary shot
			if ctx.Err() != nil {
				return
			}
			shots[shot] = run(shot)
			done[shot] = true
		}
	})
	res := mergeShots(shots, done, p, kind)
	completed := 0
	for _, d := range done {
		if d {
			completed++
		}
	}
	emitShotMetrics(p, kind, shots, done, completed)
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("anneal: %s canceled after %d of %d shots: %w", kind, completed, p.Shots, err)
	}
	return res, nil
}

func sqaShotReference(a *isingAdj, p Params, unembed func([]int8) ([]bool, float64), shot int) shotOutcome {
	var out shotOutcome
	rng := rand.New(rand.NewSource(shotSeed(p.Seed, shot)))
	const P = sqaTrotter
	spins := make([][]int8, P)
	for sl := range spins {
		spins[sl] = make([]int8, a.n)
		for i := range spins[sl] {
			if rng.Intn(2) == 0 {
				spins[sl][i] = 1
			} else {
				spins[sl][i] = -1
			}
		}
	}
	for sweep := 0; sweep < p.Sweeps; sweep++ {
		gamma := gammaAt(p, sweep)
		beta := sqaBetaAt(p, sweep)
		jPerp := -(float64(P) / (2 * beta)) * math.Log(math.Tanh(beta*gamma/float64(P)))
		for sl := 0; sl < P; sl++ {
			up := spins[(sl+1)%P]
			down := spins[(sl-1+P)%P]
			cur := spins[sl]
			for i := 0; i < a.n; i++ {
				si := float64(cur[i])
				dClassical := -2 * si * a.localField(cur, i) / float64(P)
				dQuantum := 2 * jPerp * si * float64(up[i]+down[i])
				d := dClassical + dQuantum
				out.proposed++
				if d <= 0 || rng.Float64() < math.Exp(-beta*d) {
					out.accepted++
					cur[i] = -cur[i]
				}
			}
		}
		for i := 0; i < a.n; i++ {
			var d float64
			for sl := 0; sl < P; sl++ {
				d += -2 * float64(spins[sl][i]) * a.localField(spins[sl], i) / float64(P)
			}
			out.proposed++
			if d <= 0 || rng.Float64() < math.Exp(-beta*d) {
				out.accepted++
				for sl := 0; sl < P; sl++ {
					spins[sl][i] = -spins[sl][i]
				}
			}
		}
	}
	for sl := 0; sl < P; sl++ {
		var x []bool
		var e float64
		if unembed != nil {
			x, e = unembed(spins[sl])
		} else {
			x, e = qubo.SpinsToBits(spins[sl]), a.energy(spins[sl])
		}
		if out.best.X == nil || e < out.best.Energy {
			out.best = Sample{X: append([]bool(nil), x...), Energy: e}
		}
		if p.wantReadouts() {
			out.readouts = append(out.readouts, Sample{X: x, Energy: e})
		}
	}
	return out
}

// sqaRun is everything a caller can observe of one sampler run.
type sqaRun struct {
	res      Result
	samples  []Sample
	counters map[string]int64
}

// observeSQA runs sampler under p with an OnSample hook and a metrics
// registry attached.
func observeSQA(t *testing.T, p Params, sampler func(Params) (Result, error)) sqaRun {
	t.Helper()
	var r sqaRun
	mx := obs.NewMetrics()
	p.Obs = obs.Obs{Metrics: mx}
	p.OnSample = func(x []bool, e float64) {
		r.samples = append(r.samples, Sample{X: append([]bool(nil), x...), Energy: e})
	}
	res, err := sampler(p)
	if err != nil {
		t.Fatal(err)
	}
	r.res = res
	r.counters, _ = mx.Snapshot()
	return r
}

func bitString(x []bool) string {
	b := make([]byte, len(x))
	for i, v := range x {
		b[i] = '0'
		if v {
			b[i] = '1'
		}
	}
	return string(b)
}

// sameRun reports the first difference between got and want, floats
// compared by their bits, or "" when there is none.
func sameRun(got, want sqaRun) string {
	if g, w := bitString(got.res.Best.X), bitString(want.res.Best.X); g != w {
		return fmt.Sprintf("Best.X %s, want %s", g, w)
	}
	if g, w := math.Float64bits(got.res.Best.Energy), math.Float64bits(want.res.Best.Energy); g != w {
		return fmt.Sprintf("Best.Energy bits %#x, want %#x", g, w)
	}
	if len(got.res.BestAfterShot) != len(want.res.BestAfterShot) {
		return fmt.Sprintf("%d BestAfterShot entries, want %d", len(got.res.BestAfterShot), len(want.res.BestAfterShot))
	}
	for i, e := range want.res.BestAfterShot {
		if math.Float64bits(got.res.BestAfterShot[i]) != math.Float64bits(e) {
			return fmt.Sprintf("BestAfterShot[%d] = %v, want %v", i, got.res.BestAfterShot[i], e)
		}
	}
	if len(got.samples) != len(want.samples) {
		return fmt.Sprintf("%d readouts, want %d", len(got.samples), len(want.samples))
	}
	for i, s := range want.samples {
		if bitString(got.samples[i].X) != bitString(s.X) || math.Float64bits(got.samples[i].Energy) != math.Float64bits(s.Energy) {
			return fmt.Sprintf("readout %d = %s %v, want %s %v", i, bitString(got.samples[i].X), got.samples[i].Energy, bitString(s.X), s.Energy)
		}
	}
	for _, c := range []string{"anneal.sqa.shots", "anneal.sqa.proposed", "anneal.sqa.accepted"} {
		if got.counters[c] != want.counters[c] {
			return fmt.Sprintf("%s = %d, want %d", c, got.counters[c], want.counters[c])
		}
	}
	return ""
}

// chainEmbed maps every logical spin of is onto a chain of two physical
// spins (2i, 2i+1) joined by coupling -chain, putting h_i and each J_ij
// on the chain heads, and returns the physical Ising with an unembedding
// that reads each chain by its head and reports the logical QUBO energy.
func chainEmbed(m *qubo.Model, chain float64) (*qubo.Ising, func([]int8) ([]bool, float64)) {
	is := m.ToIsing()
	phys := &qubo.Ising{N: 2 * is.N, Offset: is.Offset, H: make([]float64, 2*is.N), J: map[[2]int]float64{}}
	for i, h := range is.H {
		phys.H[2*i] = h
		phys.J[[2]int{2 * i, 2*i + 1}] = -chain
	}
	for k, w := range is.J {
		phys.J[[2]int{2 * k[0], 2 * k[1]}] = w
	}
	unembed := func(s []int8) ([]bool, float64) {
		x := make([]bool, is.N)
		for i := range x {
			x[i] = s[2*i] > 0
		}
		return x, m.Evaluate(x)
	}
	return phys, unembed
}

// TestSQAMatchesReference pins the SQA kernel to sqaIsingReference bit
// for bit — best assignment and energy, the best-after-shot trace, every
// OnSample readout and the shot, proposal and accept counters — on MKP
// QUBOs whose Ising weights are dyadic (R = 1.5, 2, 3, 8: the slices
// keep their fields) and not (R = 1.1, 2.7: fields are recomputed), at
// 1, 2 and 50 sweeps, on one and eight workers, and through
// RunEmbeddedIsing on a chain-embedded model.
func TestSQAMatchesReference(t *testing.T) {
	ctx := context.Background()
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	paths := map[bool]int{}
	check := func(name string, p Params, exact bool, sampler, reference func(Params) (Result, error)) {
		t.Helper()
		paths[exact]++
		parallel.SetWorkers(1)
		want := observeSQA(t, p, reference)
		for _, w := range []int{1, 8} {
			parallel.SetWorkers(w)
			if diff := sameRun(observeSQA(t, p, sampler), want); diff != "" {
				t.Errorf("%s workers=%d: %s", name, w, diff)
			}
		}
	}
	rng := rand.New(rand.NewSource(28))
	for _, r := range []float64{1.1, 1.5, 2, 2.7, 3, 8} {
		for gi := 0; gi < 3; gi++ {
			n := 4 + rng.Intn(11) // 4..14
			g := graph.Gnm(n, rng.Intn(n*(n-1)/2+1), rng.Int63())
			k := 1 + rng.Intn(3)
			e, err := qubo.FormulateMKP(g, k, r)
			if err != nil {
				t.Fatal(err)
			}
			is := e.Model.ToIsing()
			exact := compileIsing(is).exact
			for _, sweeps := range []int{1, 2, 50} {
				p := Params{Shots: 5, Sweeps: sweeps, Seed: rng.Int63()}
				check(fmt.Sprintf("R=%g n=%d m=%d k=%d sweeps=%d", r, n, g.M(), k, sweeps), p, exact,
					func(p Params) (Result, error) { return SQA(ctx, e.Model, p) },
					func(p Params) (Result, error) { return sqaIsingReference(ctx, is, p.withDefaults(), nil) })
			}
		}
	}
	// The embedded sampler: RunEmbeddedIsing divides the physical model
	// by its largest coefficient, the chain strength here. Dividing by
	// 64 keeps R = 2's weights dyadic; dividing by 48 does not.
	e, err := qubo.FormulateMKP(graph.Gnm(7, 12, 5), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		chain float64
		exact bool
	}{{64, true}, {48, false}} {
		phys, unembed := chainEmbed(e.Model, tc.chain)
		if exact := compileIsing(autoScale(phys)).exact; exact != tc.exact {
			t.Fatalf("embedded chain=%g: exact = %v, want %v", tc.chain, exact, tc.exact)
		}
		p := Params{Shots: 6, Sweeps: 20, Seed: 11}
		check(fmt.Sprintf("embedded chain=%g", tc.chain), p, tc.exact,
			func(p Params) (Result, error) { return RunEmbeddedIsing(ctx, phys, p, unembed) },
			func(p Params) (Result, error) {
				return sqaIsingReference(ctx, autoScale(phys), p.withDefaults(), unembed)
			})
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("runs per field path %v: both paths must be exercised", paths)
	}
}

// star returns the adjacency of a star: spin 0 with field h0 coupled to
// spins 1..len(ws) by ws.
func star(h0 float64, ws ...float64) ([]float64, [][]qubo.Weighted) {
	h := make([]float64, 1+len(ws))
	h[0] = h0
	adj := make([][]qubo.Weighted, len(h))
	for j, w := range ws {
		adj[0] = append(adj[0], qubo.Weighted{J: j + 1, W: w})
		adj[j+1] = []qubo.Weighted{{J: 0, W: w}}
	}
	return h, adj
}

// TestExactFieldsRule pins the rule that selects the kept-field path:
// every coefficient an integer multiple of one 2^-e, and each row's
// |h_i| + 2·Σ_j |J_ij| below 2^52 in those units.
func TestExactFieldsRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    float64
		ws   []float64
		want bool
	}{
		{"dyadic row", 0.5, []float64{0.25, -1.75, 3}, true},
		{"zero coefficients", 0, []float64{0, 2}, true},
		{"2^-40 weight on a small row", 1, []float64{0x1p-40}, true},
		{"just under the bound", 0x1p51 - 1, []float64{0x1p49, -0x1p49}, true},
		{"1.1 weight", 1, []float64{1.1, 2}, false},
		{"2^-40 weight on a 2^12 row", 0x1p12, []float64{0x1p-40}, false},
		{"row at the 2^52 bound", 0x1p51, []float64{0x1p49, -0x1p49}, false},
		{"huge multiples of two", 0x1p60, nil, false},
		{"+Inf weight", 1, []float64{math.Inf(1)}, false},
		{"-Inf field", math.Inf(-1), []float64{1}, false},
		{"NaN weight", 1, []float64{math.NaN()}, false},
	} {
		if got := exactFields(star(tc.h, tc.ws...)); got != tc.want {
			t.Errorf("%s: exactFields = %v, want %v", tc.name, got, tc.want)
		}
	}
	// The MKP QUBO's Ising weights are multiples of R/4 and 1/4: dyadic
	// for R = 1.5, 2, 3 and 8, not for R = 1.1 or 2.7.
	g := graph.Gnm(10, 40, 1)
	for _, tc := range []struct {
		r    float64
		want bool
	}{{1.1, false}, {1.5, true}, {2, true}, {2.7, false}, {3, true}, {8, true}} {
		e, err := qubo.FormulateMKP(g, 2, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		if got := compileIsing(e.Model.ToIsing()).exact; got != tc.want {
			t.Errorf("MKP R=%g: exact = %v, want %v", tc.r, got, tc.want)
		}
	}
}
