package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// sampleRequest exercises every field of the wire request.
func sampleRequest() *SolveRequest {
	return &SolveRequest{
		V: Version, Algo: AlgoQTKP, K: 2, T: 4,
		Graph:     Graph{N: 5, Edges: [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}}},
		Seed:      7,
		TimeoutMS: 1500,
		Stream:    true,
		NoCache:   true,
		Anneal:    &AnnealParams{R: 3, Shots: 50, DeltaT: 2},
	}
}

// TestRequestRoundTrip: encode → strict decode → identical document.
func TestRequestRoundTrip(t *testing.T) {
	in := sampleRequest()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSolveRequest(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("DecodeSolveRequest: %v", err)
	}
	back, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, back) {
		t.Errorf("round trip changed the document:\n in: %s\nout: %s", data, back)
	}
}

// TestResultRoundTrip covers the result document, including optional
// progress and taxonomy fields.
func TestResultRoundTrip(t *testing.T) {
	valid := true
	in := &SolveResult{
		V: Version, ID: "r9", Algo: AlgoQMKP, K: 2,
		Size: 4, Set: []int{1, 3, 5, 9}, Found: true, Valid: &valid,
		Progress:      []ProgressPoint{{T: 2, Found: true, Size: 3, Set: []int{1, 3, 5}, CumGates: 77}},
		FirstFeasible: &ProgressPoint{T: 2, Found: true, Size: 3, Set: []int{1, 3, 5}, CumGates: 77},
		Nodes:         12, OracleCalls: 3, Gates: 999, QPUTimeNS: 12345,
		ErrorProbability: 0.25, Cached: true,
		ErrorKind: KindCanceled, Error: "canceled mid-probe",
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSolveResult(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("DecodeSolveResult: %v", err)
	}
	back, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, back) {
		t.Errorf("round trip changed the document:\n in: %s\nout: %s", data, back)
	}
}

// TestEventRoundTrip covers one streamed frame with a nested result.
func TestEventRoundTrip(t *testing.T) {
	in := &Event{
		V: Version, Type: EventFinal, ID: "r2", T: 3, Size: 5, Found: true, CumGates: 10,
		Result: &SolveResult{V: Version, Algo: AlgoBB, K: 2, Size: 5, Set: []int{1, 2, 3, 4, 5}, Found: true},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeEvent(data)
	if err != nil {
		t.Fatalf("DecodeEvent: %v", err)
	}
	back, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, back) {
		t.Errorf("round trip changed the frame:\n in: %s\nout: %s", data, back)
	}
}

// TestStrictDecoding: the failure modes that must wrap ErrBadSpec.
func TestStrictDecoding(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"unknown-field", `{"v":1,"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]},"frobnicate":true}`},
		{"wrong-version", `{"v":2,"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]}}`},
		{"missing-version", `{"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]}}`},
		{"unknown-algo", `{"v":1,"algo":"sat","k":2,"graph":{"n":2,"edges":[[1,2]]}}`},
		{"k-zero", `{"v":1,"algo":"bb","k":0,"graph":{"n":2,"edges":[[1,2]]}}`},
		{"qtkp-no-t", `{"v":1,"algo":"qtkp","k":2,"graph":{"n":2,"edges":[[1,2]]}}`},
		{"negative-timeout", `{"v":1,"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]},"timeout_ms":-1}`},
		{"negative-shots", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2,"edges":[[1,2]]},"anneal":{"shots":-5}}`},
		{"negative-deltat", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2,"edges":[[1,2]]},"anneal":{"deltat":-1}}`},
		{"trailing-data", `{"v":1,"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]}} {"again":true}`},
		{"trailing-bracket", `{"v":1,"algo":"greedy","k":2,"graph":{"n":3,"edges":[[1,2]]}}]`},
		{"trailing-brace", `{"v":1,"algo":"greedy","k":2,"graph":{"n":3,"edges":[[1,2]]}}}`},
		{"not-json", `p edge 5 4`},
	}
	for _, tc := range cases {
		_, err := DecodeSolveRequest(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: decode accepted a bad document", tc.name)
			continue
		}
		if !errors.Is(err, core.ErrBadSpec) {
			t.Errorf("%s: error %v does not wrap ErrBadSpec", tc.name, err)
		}
	}
	// Event frames decode as strictly, under their own prefix.
	for _, doc := range []string{
		`{"v":1,"type":"final","bogus":1}`,
		`{"v":1,"type":"final"}]`,
	} {
		_, err := DecodeEvent([]byte(doc))
		if !errors.Is(err, core.ErrBadSpec) {
			t.Errorf("event %s: error %v does not wrap ErrBadSpec", doc, err)
		}
	}
	if _, err := DecodeEvent([]byte(`{"v":1,"type":"final","bogus":1}`)); err == nil || !strings.HasPrefix(err.Error(), "api: decode event: ") {
		t.Errorf("event with an unknown field: error %v, want the api: decode event: prefix", err)
	}
}

// TestAnnealBudgetCapped: a qamkp request's shots and deltat must lie in
// [0, MaxShots] and [0, MaxDeltaT] (zero selects the default). Below is
// a bad spec, above is too large; other algorithms do not consult the
// anneal block.
func TestAnnealBudgetCapped(t *testing.T) {
	const g = `"graph":{"n":2,"edges":[[1,2]]}`
	for _, tc := range []struct {
		algo, anneal string
		want         error
	}{
		{"qamkp", `{"shots":-5}`, core.ErrBadSpec},
		{"qamkp", `{"deltat":-1}`, core.ErrBadSpec},
		{"qamkp", `{"shots":-1,"deltat":2000}`, core.ErrBadSpec},
		{"qamkp", fmt.Sprintf(`{"shots":%d}`, MaxShots+1), core.ErrTooLarge},
		{"qamkp", `{"shots":100000000000}`, core.ErrTooLarge},
		{"qamkp", fmt.Sprintf(`{"deltat":%d}`, MaxDeltaT+1), core.ErrTooLarge},
		{"qamkp", fmt.Sprintf(`{"r":2,"shots":%d,"deltat":%d}`, MaxShots, MaxDeltaT), nil},
		{"qamkp", `{"shots":10000,"deltat":200}`, nil},
		{"qamkp", `{}`, nil},
		{"qmkp", `{"shots":-5,"deltat":100000000000}`, nil},
	} {
		doc := fmt.Sprintf(`{"v":1,"algo":%q,"k":2,%s,"anneal":%s}`, tc.algo, g, tc.anneal)
		_, err := DecodeSolveRequest(strings.NewReader(doc))
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: %v", doc, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", doc, err, tc.want)
		}
		if tc.want == core.ErrTooLarge && errors.Is(err, core.ErrBadSpec) {
			t.Errorf("%s: error %v also wraps ErrBadSpec", doc, err)
		}
	}
}

// TestTrailingWhitespaceAccepted: whitespace after the document is not
// trailing data, so a newline-terminated reply (as the daemon writes
// them) decodes.
func TestTrailingWhitespaceAccepted(t *testing.T) {
	doc := `{"v":1,"algo":"greedy","k":2,"graph":{"n":3,"edges":[[1,2]]}}`
	for _, tail := range []string{"", "\n", " \t\r\n "} {
		if _, err := DecodeSolveRequest(strings.NewReader(doc + tail)); err != nil {
			t.Errorf("request with tail %q: %v", tail, err)
		}
	}
	var reply bytes.Buffer
	if err := json.NewEncoder(&reply).Encode(&SolveResult{V: Version, Algo: AlgoGreedy, K: 2, Size: 2, Set: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSolveResult(&reply); err != nil {
		t.Errorf("newline-terminated reply: %v", err)
	}
}

// TestGraphBuildValidation pins the instance-level rejections.
func TestGraphBuildValidation(t *testing.T) {
	cases := []struct {
		name string
		g    Graph
	}{
		{"empty", Graph{N: 0}},
		{"out-of-range", Graph{N: 3, Edges: [][2]int{{1, 4}}}},
		{"zero-vertex", Graph{N: 3, Edges: [][2]int{{0, 2}}}},
		{"self-loop", Graph{N: 3, Edges: [][2]int{{2, 2}}}},
		{"duplicate", Graph{N: 3, Edges: [][2]int{{1, 2}, {2, 1}}}},
	}
	for _, tc := range cases {
		if _, err := tc.g.Build(); !errors.Is(err, core.ErrBadSpec) {
			t.Errorf("%s: error %v does not wrap ErrBadSpec", tc.name, err)
		}
	}
}

// TestGraphWireConversion: in-memory → wire → in-memory is lossless.
func TestGraphWireConversion(t *testing.T) {
	g := graph.Gnm(20, 50, 3)
	back, err := FromGraph(g).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("conversion changed shape: %v -> %v", g, back)
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if g.HasEdge(u, v) != back.HasEdge(u, v) {
				t.Fatalf("edge {%d,%d} changed across conversion", u, v)
			}
		}
	}
}

// TestCloneIsDeep: mutating a clone's sets must not reach the original.
func TestCloneIsDeep(t *testing.T) {
	valid := true
	orig := &SolveResult{
		V: Version, Set: []int{1, 2, 3}, Valid: &valid,
		Progress:      []ProgressPoint{{Set: []int{1, 2}}},
		FirstFeasible: &ProgressPoint{Set: []int{1}},
	}
	c := orig.Clone()
	c.Set[0] = 99
	c.Progress[0].Set[0] = 99
	c.FirstFeasible.Set[0] = 99
	*c.Valid = false
	if orig.Set[0] != 1 || orig.Progress[0].Set[0] != 1 || orig.FirstFeasible.Set[0] != 1 || !*orig.Valid {
		t.Error("Clone shares memory with the original")
	}
	if (*SolveResult)(nil).Clone() != nil {
		t.Error("nil Clone must be nil")
	}
}

// TestBaseConversions pins the 1-based wire convention helpers.
func TestBaseConversions(t *testing.T) {
	if got := OneBased([]int{0, 4, 9}); got[0] != 1 || got[2] != 10 {
		t.Errorf("OneBased = %v", got)
	}
	if got := ZeroBased(OneBased([]int{3, 7})); got[0] != 3 || got[1] != 7 {
		t.Errorf("ZeroBased∘OneBased = %v", got)
	}
	if OneBased(nil) != nil || ZeroBased(nil) != nil {
		t.Error("nil sets must stay nil across conversion")
	}
}
