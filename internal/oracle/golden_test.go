package oracle

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/circuits.golden from the current compiler")

const goldenPath = "testdata/circuits.golden"

// goldenGraphs are the instances whose compiled circuits are pinned: the
// paper's Example 6, the G(10, 23) and G(14, 45) shapes the gate path
// serves (the latter at two seeds), and the edgeless and complete
// extremes, where the complement graph is complete or empty.
func goldenGraphs() []struct {
	name string
	g    *graph.Graph
} {
	complete := graph.New(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			complete.AddEdge(u, v)
		}
	}
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"example6", graph.Example6()},
		{"gnm10-23-s1", graph.Gnm(10, 23, 1)},
		{"gnm14-45-s1", graph.Gnm(14, 45, 1)},
		{"gnm14-45-s2", graph.Gnm(14, 45, 2)},
		{"edgeless5", graph.New(5)},
		{"complete5", complete},
	}
}

// circuitDigest is one golden line for a compiled oracle: qubit and gate
// totals, the per-block counts, a SHA-256 of the gate list in order
// (kind, target, controls with polarity, block) and one of the qubit
// labels in order.
func circuitDigest(o *Oracle) string {
	c := o.Circuit()
	gh, lh := sha256.New(), sha256.New()
	var word [8]byte
	put := func(h interface{ Write([]byte) (int, error) }, v int) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		_, _ = h.Write(word[:])
	}
	for _, g := range c.Gates() {
		put(gh, int(g.Kind))
		put(gh, g.Target)
		put(gh, len(g.Controls))
		for _, ctl := range g.Controls {
			put(gh, ctl.Qubit)
			if ctl.Positive {
				put(gh, 1)
			} else {
				put(gh, 0)
			}
		}
		put(gh, len(g.Block))
		_, _ = gh.Write([]byte(g.Block))
	}
	for q := 0; q < c.NumQubits(); q++ {
		l := c.Label(q)
		put(lh, len(l))
		_, _ = lh.Write([]byte(l))
	}
	counts := o.ComponentGates()
	blocks := make([]string, 0, len(counts))
	for b := range counts {
		blocks = append(blocks, b)
	}
	sort.Strings(blocks)
	parts := make([]string, len(blocks))
	for i, b := range blocks {
		parts[i] = fmt.Sprintf("%s=%d", b, counts[b])
	}
	return fmt.Sprintf("qubits=%d gates=%d %s gatesha=%x labelsha=%x",
		o.NumQubits(), o.TotalGates(), strings.Join(parts, ","), gh.Sum(nil), lh.Sum(nil))
}

// goldenLines compiles every pinned case: each graph, k ∈ {1, 2, 3} with
// k ≤ n, every T ∈ [1, n], adder and compact counting.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, gg := range goldenGraphs() {
		n := gg.g.N()
		for k := 1; k <= 3 && k <= n; k++ {
			for T := 1; T <= n; T++ {
				for _, compact := range []bool{false, true} {
					o, err := BuildOpts(gg.g, k, T, Options{CompactCounting: compact})
					if err != nil {
						t.Fatalf("%s k=%d T=%d compact=%v: %v", gg.name, k, T, compact, err)
					}
					lines = append(lines, fmt.Sprintf("%s k=%d T=%d compact=%v %s", gg.name, k, T, compact, circuitDigest(o)))
				}
			}
		}
	}
	return lines
}

// TestCompiledCircuitsGolden pins every gate, qubit label and per-block
// count of the compiled oracle, so a change to how circuits are built or
// stored must leave the circuits themselves bit-identical (and with them
// every Grover schedule, measurement draw and gate total). Regenerate
// with -update only for a change that means to alter the circuits.
func TestCompiledCircuitsGolden(t *testing.T) {
	got := goldenLines(t)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d compiled cases, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("circuit differs from golden:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
