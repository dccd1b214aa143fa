package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestReadWriteRoundTrip(t *testing.T) {
	g := Example6()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("round trip changed size: n=%d m=%d", got.N(), got.M())
	}
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			if got.HasEdge(u, v) != g.HasEdge(u, v) {
				t.Errorf("edge (%d,%d) changed in round trip", u, v)
			}
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"e 1 2\n",          // edge before problem line
		"p 3 1\ne 1 4\n",   // vertex out of range
		"p 3 1\ne 2 2\n",   // self-loop
		"p 3 1\nq 1 2\n",   // unknown directive
		"",                 // no problem line
		"p 3 1\np 3 1\n",   // duplicate problem line
		"p 3 1\ne 1 2 3\n", // malformed edge
	}
	for _, in := range cases {
		if _, err := Read(bytes.NewBufferString(in)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", in)
		}
	}
}

// --- Loader bugfix regressions (all failed before the strict parser) ---

// The standard DIMACS header form was rejected as a malformed problem
// line before the loader accepted the `edge` keyword.
func TestReadAcceptsDIMACSEdgeHeader(t *testing.T) {
	g, err := Read(strings.NewReader("c a .clq-style file\np edge 4 3\ne 1 2\ne 3 4\ne 1 4\n"))
	if err != nil {
		t.Fatalf("p edge header rejected: %v", err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("got %v, want graph(n=4,m=3)", g)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) || !g.HasEdge(0, 3) {
		t.Fatal("edges misparsed from p edge file")
	}
}

// Truncated files — fewer e-lines than the header declares — were
// silently accepted before the edge-count validation.
func TestReadRejectsTruncatedFile(t *testing.T) {
	_, err := Read(strings.NewReader("p 4 3\ne 1 2\n"))
	if err == nil {
		t.Fatal("truncated file (m=3 declared, 1 edge present) accepted")
	}
	if !strings.Contains(err.Error(), "edge count mismatch") {
		t.Fatalf("want edge-count error, got: %v", err)
	}
}

// Duplicate e-lines used to collapse silently (AddEdge is a no-op on an
// existing edge), making the parsed graph disagree with the file.
func TestReadRejectsDuplicateEdges(t *testing.T) {
	for _, in := range []string{
		"p 3 2\ne 1 2\ne 1 2\n", // same orientation
		"p 3 2\ne 1 2\ne 2 1\n", // reverse orientation
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) accepted a duplicate edge", in)
		}
	}
}

// Any line starting with 'c' used to vanish as a comment — including
// malformed or future directives like "ce"/"cost". Only "c" alone or
// "c<space>" is a comment now; everything else errors.
func TestReadRejectsCommentLookalikeDirectives(t *testing.T) {
	for _, in := range []string{
		"ce 1 2\np 2 0\n",
		"p 2 1\ncost 3\ne 1 2\n",
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) treated a non-comment directive as a comment", in)
		}
	}
	// The legitimate comment forms still parse.
	g, err := Read(strings.NewReader("c\nc comment\nc\ttab comment\n# hash\np 2 1\ne 1 2\n"))
	if err != nil {
		t.Fatalf("comment forms rejected: %v", err)
	}
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("got %v, want graph(n=2,m=1)", g)
	}
}

func TestReadRejectsMalformedInput(t *testing.T) {
	for _, in := range []string{
		"p 2 0\np 2 0\n",        // duplicate problem line
		"e 1 2\n",               // edge before problem line
		"p 2 1\ne 1 3\n",        // vertex out of range
		"p 2 1\ne 1 1\n",        // self-loop
		"p x 1\n",               // non-integer n
		"p 2 1\ne 1 y\n",        // non-integer vertex
		"p -1 0\n",              // negative n
		"p edge 2\n",            // short p edge form
		"q 1 2\n",               // unknown directive
		"p 2 1\ne 1 2\ne 1 2\n", // declared 1, file effectively has 2 lines
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", in)
		}
	}
}

// --- Round-trip property tests ---

func TestWriteReadRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(90)
		maxM := n * (n - 1) / 2
		m := 0
		if maxM > 0 {
			m = rng.Intn(maxM + 1)
		}
		g := Gnm(n, m, rng.Int63())
		for name, writer := range map[string]func(*bytes.Buffer) error{
			"compact": func(b *bytes.Buffer) error { return Write(b, g) },
			"dimacs":  func(b *bytes.Buffer) error { return WriteDIMACS(b, g) },
		} {
			var buf bytes.Buffer
			if err := writer(&buf); err != nil {
				t.Fatalf("%s write: %v", name, err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatalf("%s round-trip rejected: %v", name, err)
			}
			if got.N() != g.N() || got.M() != g.M() {
				t.Fatalf("%s round-trip: got %v, want %v", name, got, g)
			}
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if got.HasEdge(u, v) != g.HasEdge(u, v) {
						t.Fatalf("%s round-trip: edge {%d,%d} mismatch", name, u, v)
					}
				}
			}
		}
	}
}

// --- SNAP loader ---

func TestReadSNAP(t *testing.T) {
	in := "# SNAP-style dump\n# FromNodeId\tToNodeId\n10 20\n20 10\n20 30\n10 10\n5 30\n"
	g, ids, err := ReadSNAP(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Ids {5,10,20,30} remap (sorted) to 0..3; the self-loop 10-10 is
	// skipped and 20-10 collapses into 10-20.
	wantIDs := []int{5, 10, 20, 30}
	if len(ids) != len(wantIDs) {
		t.Fatalf("ids = %v, want %v", ids, wantIDs)
	}
	for i := range wantIDs {
		if ids[i] != wantIDs[i] {
			t.Fatalf("ids = %v, want %v", ids, wantIDs)
		}
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("got %v, want graph(n=4,m=3)", g)
	}
	for _, e := range [][2]int{{1, 2}, {2, 3}, {0, 3}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing remapped edge %v", e)
		}
	}
}

func TestReadSNAPRejectsMalformed(t *testing.T) {
	for _, in := range []string{"1 2 3\n", "1 -2\n", "a b\n"} {
		if _, _, err := ReadSNAP(strings.NewReader(in)); err == nil {
			t.Errorf("ReadSNAP(%q) succeeded, want error", in)
		}
	}
}
