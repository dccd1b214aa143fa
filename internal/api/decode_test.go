package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
)

// decodeSolveRequestReference is DecodeSolveRequest as it was before the
// byte-level fast path: encoding/json straight from the reader. The
// differential tests hold DecodeSolveRequest to it.
func decodeSolveRequestReference(r io.Reader) (*SolveRequest, error) {
	var req SolveRequest
	if err := decodeStrict(r, &req, "decode"); err != nil {
		return nil, err
	}
	if err := req.Check(KnownAlgo); err != nil {
		return nil, err
	}
	return &req, nil
}

// checkAgainstReference fails t unless DecodeSolveRequest and the
// reference agree on doc (deep-equal requests or identical error texts),
// and unless a request the scanner accepts is the one encoding/json
// decodes from the same bytes, before Check runs.
func checkAgainstReference(t *testing.T, doc []byte) {
	t.Helper()
	got, err := DecodeSolveRequest(bytes.NewReader(doc))
	want, wantErr := decodeSolveRequestReference(bytes.NewReader(doc))
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%q: error %v, reference %v", doc, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %+v, reference %+v", doc, got, want)
	}
	if fast := scanRequest(doc); fast != nil {
		var slow SolveRequest
		if err := decodeStrict(bytes.NewReader(doc), &slow, "decode"); err != nil {
			t.Fatalf("%q: scanner accepted a document encoding/json rejects: %v", doc, err)
		}
		if !reflect.DeepEqual(fast, &slow) {
			t.Fatalf("%q: scanned %+v, encoding/json %+v", doc, fast, &slow)
		}
	}
}

const baseDoc = `{"v":1,"algo":"bb","k":2,"graph":{"n":3,"edges":[[1,2],[2,3]]}}`

// decodeCases are the documents the differential tests compare on, with
// whether the scanner takes them (fast) or declines them to
// encoding/json. FuzzDecodeSolveRequest seeds its corpus with them.
var decodeCases = []struct {
	name string
	doc  string
	fast bool
}{
	{"minimal", baseDoc, true},
	{"every-field", `{"v":1,"algo":"qtkp","k":2,"t":4,"graph":{"n":5,"edges":[[1,2],[2,3],[3,4],[4,5],[1,5]]},"seed":7,"timeout_ms":1500,"stream":true,"no_cache":true,"anneal":{"r":3,"shots":50,"deltat":2}}`, true},
	{"keys-reordered", `{"graph":{"edges":[[1,2]],"n":2},"anneal":{"deltat":2,"shots":5,"r":1.5},"k":2,"algo":"qamkp","v":1}`, true},
	{"whitespace-between-every-token", " \t\r\n{ \"v\" :\t1 ,\n\"algo\"\r:\"bb\" , \"k\" : 2 , \"seed\" : 5 , \"stream\" : false ,\n \"graph\" : { \"n\" : 3 , \"edges\" : [ [ 1 , 2 ] ,\n[ 2 ,3 ] ] } , \"anneal\" : { \"r\" : 2.5 , \"shots\" : 10 } }\r\n\t ", true},
	{"trailing-whitespace", baseDoc + " \t\r\n ", true},
	{"negative-zero", `{"v":1,"algo":"bb","k":2,"seed":-0,"graph":{"n":3,"edges":[[-0,2]]}}`, true},
	{"r-integer", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2,"edges":[[1,2]]},"anneal":{"r":2}}`, true},
	{"r-fraction", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2,"edges":[[1,2]]},"anneal":{"r":2.0}}`, true},
	{"r-exponent", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2,"edges":[[1,2]]},"anneal":{"r":25e-1}}`, true},
	{"r-signed-exponent", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2,"edges":[[1,2]]},"anneal":{"r":-0.125E+2}}`, true},
	{"r-underflow", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2,"edges":[[1,2]]},"anneal":{"r":1e-400}}`, true},
	{"edges-empty", `{"v":1,"algo":"bb","k":2,"graph":{"n":3,"edges":[]}}`, true},
	{"edges-missing", `{"v":1,"algo":"bb","k":2,"graph":{"n":3}}`, true},
	{"graph-empty", `{"v":1,"algo":"bb","k":2,"graph":{}}`, true},
	{"graph-missing", `{"v":1,"algo":"bb","k":2}`, true},
	{"anneal-empty", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2,"edges":[[1,2]]},"anneal":{}}`, true},
	{"empty-object", `{}`, true},
	{"int64-extremes", `{"v":1,"algo":"bb","k":2,"seed":-9223372036854775808,"timeout_ms":9223372036854775807,"graph":{"n":2}}`, true},
	{"wrong-version", `{"v":2,"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]}}`, true},
	{"unknown-algo", `{"v":1,"algo":"sat","k":2,"graph":{"n":2,"edges":[[1,2]]}}`, true},
	{"k-zero", `{"v":1,"algo":"bb","k":0,"graph":{"n":2,"edges":[[1,2]]}}`, true},
	{"qtkp-no-t", `{"v":1,"algo":"qtkp","k":2,"graph":{"n":2,"edges":[[1,2]]}}`, true},
	{"negative-timeout", `{"v":1,"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]},"timeout_ms":-1}`, true},
	{"printable-algo", `{"v":1,"algo":" ~!#$%&'()*+,-./:;<=>?@[]^_{|}","k":2}`, true},

	// Case-folded keys: encoding/json matches them to the fields.
	{"case-folded-algo", `{"v":1,"ALGO":"bb","k":2,"graph":{"n":3,"edges":[[1,2]]}}`, false},
	{"case-folded-k", `{"v":1,"algo":"bb","K":2,"graph":{"n":3,"edges":[[1,2]]}}`, false},
	{"case-folded-edges", `{"v":1,"algo":"bb","k":2,"graph":{"n":3,"Edges":[[1,2]]}}`, false},
	// Repeated keys: the last value wins, and repeated objects merge.
	{"duplicate-k", `{"v":1,"algo":"bb","k":1,"k":2,"graph":{"n":3,"edges":[[1,2]]}}`, false},
	{"duplicate-graph", `{"v":1,"algo":"bb","k":2,"graph":{"n":3},"graph":{"edges":[[1,2]]}}`, false},
	{"duplicate-n", `{"v":1,"algo":"bb","k":2,"graph":{"n":3,"edges":[[1,2]],"n":4}}`, false},
	{"duplicate-anneal", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2},"anneal":{"r":3},"anneal":{"shots":5}}`, false},
	{"duplicate-r", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2},"anneal":{"r":3,"r":4}}`, false},
	// null in every position.
	{"null-document", `null`, false},
	{"null-v", `{"v":null,"algo":"bb","k":2,"graph":{"n":3}}`, false},
	{"null-algo", `{"v":1,"algo":null,"k":2,"graph":{"n":3}}`, false},
	{"null-k", `{"v":1,"algo":"bb","k":null,"graph":{"n":3}}`, false},
	{"null-t", `{"v":1,"algo":"qtkp","k":2,"t":null,"graph":{"n":3}}`, false},
	{"null-seed", `{"v":1,"algo":"bb","k":2,"seed":null,"graph":{"n":3}}`, false},
	{"null-timeout", `{"v":1,"algo":"bb","k":2,"timeout_ms":null,"graph":{"n":3}}`, false},
	{"null-stream", `{"v":1,"algo":"bb","k":2,"stream":null,"graph":{"n":3}}`, false},
	{"null-no-cache", `{"v":1,"algo":"bb","k":2,"no_cache":null,"graph":{"n":3}}`, false},
	{"null-graph", `{"v":1,"algo":"bb","k":2,"graph":null}`, false},
	{"null-n", `{"v":1,"algo":"bb","k":2,"graph":{"n":null}}`, false},
	{"null-edges", `{"v":1,"algo":"bb","k":2,"graph":{"n":3,"edges":null}}`, false},
	{"null-edge", `{"v":1,"algo":"bb","k":2,"graph":{"n":3,"edges":[null]}}`, false},
	{"null-endpoint", `{"v":1,"algo":"bb","k":2,"graph":{"n":3,"edges":[[1,null]]}}`, false},
	{"null-anneal", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2},"anneal":null}`, false},
	{"null-r", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2},"anneal":{"r":null}}`, false},
	{"null-shots", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2},"anneal":{"shots":null}}`, false},
	// Integers outside the plain form or their field's range.
	{"k-exponent", `{"v":1,"algo":"bb","k":2e0,"graph":{"n":3}}`, false},
	{"k-fraction", `{"v":1,"algo":"bb","k":2.0,"graph":{"n":3}}`, false},
	{"k-leading-zero", `{"v":1,"algo":"bb","k":02,"graph":{"n":3}}`, false},
	{"k-plus", `{"v":1,"algo":"bb","k":+2,"graph":{"n":3}}`, false},
	{"k-string", `{"v":1,"algo":"bb","k":"2","graph":{"n":3}}`, false},
	{"seed-past-int64", `{"v":1,"algo":"bb","k":2,"seed":9223372036854775808,"graph":{"n":3}}`, false},
	{"seed-below-int64", `{"v":1,"algo":"bb","k":2,"seed":-9223372036854775809,"graph":{"n":3}}`, false},
	{"n-twenty-digits", `{"v":1,"algo":"bb","k":2,"graph":{"n":10000000000000000000}}`, false},
	{"endpoint-fraction", `{"v":1,"algo":"bb","k":2,"graph":{"n":3,"edges":[[1,2.5]]}}`, false},
	{"r-past-float64", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2},"anneal":{"r":1e400}}`, false},
	{"r-leading-dot", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2},"anneal":{"r":.5}}`, false},
	{"r-trailing-dot", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2},"anneal":{"r":2.}}`, false},
	{"r-bare-exponent", `{"v":1,"algo":"qamkp","k":2,"graph":{"n":2},"anneal":{"r":2e}}`, false},
	{"bool-as-integer", `{"v":1,"algo":"bb","k":2,"stream":1,"graph":{"n":3}}`, false},
	{"bool-prefix", `{"v":1,"algo":"bb","k":2,"stream":truex,"graph":{"n":3}}`, false},
	// Text outside printable ASCII without escapes.
	{"leading-bom", "\xef\xbb\xbf" + baseDoc, false},
	{"escaped-algo", `{"v":1,"algo":"b\u0062","k":2,"graph":{"n":3,"edges":[[1,2]]}}`, false},
	{"escaped-key", `{"\u0076":1,"algo":"bb","k":2,"graph":{"n":3,"edges":[[1,2]]}}`, false},
	{"non-ascii-algo", `{"v":1,"algo":"bé","k":2}`, false},
	{"tab-in-algo", "{\"v\":1,\"algo\":\"b\tb\",\"k\":2}", false},
	// Edges of other lengths: encoding/json truncates or zero-fills.
	{"edge-of-three", `{"v":1,"algo":"bb","k":2,"graph":{"n":3,"edges":[[1,2,3]]}}`, false},
	{"edge-of-one", `{"v":1,"algo":"bb","k":2,"graph":{"n":3,"edges":[[1]]}}`, false},
	{"edge-of-none", `{"v":1,"algo":"bb","k":2,"graph":{"n":3,"edges":[[]]}}`, false},
	// Unknown keys, trailing data and syntax errors.
	{"unknown-field", `{"v":1,"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]},"frobnicate":true}`, false},
	{"unknown-graph-field", `{"v":1,"algo":"bb","k":2,"graph":{"n":2,"m":1}}`, false},
	{"trailing-data", baseDoc + ` {"again":true}`, false},
	{"trailing-bracket", baseDoc + `]`, false},
	{"trailing-brace", baseDoc + `}`, false},
	{"trailing-comma", `{"v":1,"algo":"bb","k":2,}`, false},
	{"edges-trailing-comma", `{"v":1,"algo":"bb","k":2,"graph":{"n":3,"edges":[[1,2],]}}`, false},
	{"truncated", `{"v":1,"algo":"bb"`, false},
	{"array-document", `[]`, false},
	{"empty", ``, false},
	{"not-json", `p edge 5 4`, false},
}

// TestDecodeMatchesReference: on every case DecodeSolveRequest agrees
// with the encoding/json reference, and the scanner takes exactly the
// cases marked fast, the benchmark-shaped bodies among them.
func TestDecodeMatchesReference(t *testing.T) {
	type tc struct {
		name string
		doc  []byte
		fast bool
	}
	var cases []tc
	for _, c := range decodeCases {
		cases = append(cases, tc{c.name, []byte(c.doc), c.fast})
	}
	for _, body := range benchBodies(t) {
		cases = append(cases, tc{"bench-" + body.name, body.doc, true})
	}
	for _, req := range []*SolveRequest{
		sampleRequest(),
		// quantum-paper's two request shapes.
		{V: Version, Algo: AlgoQMKP, K: 2, Seed: 1 << 30, Graph: Graph{N: 4, Edges: [][2]int{{1, 2}, {3, 4}}}},
		{V: Version, Algo: AlgoQAMKP, K: 2, Seed: 99, Graph: Graph{N: 2, Edges: [][2]int{{1, 2}}},
			Anneal: &AnnealParams{R: 2, Shots: 200, DeltaT: 5}},
	} {
		doc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{"marshalled-" + req.Algo, doc, true})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkAgainstReference(t, c.doc)
			if fast := scanRequest(c.doc) != nil; fast != c.fast {
				t.Errorf("scanner took the document: %v, want %v", fast, c.fast)
			}
		})
	}
}

// TestDecodeReadErrors: a body whose read fails decodes as encoding/json
// would have decoded the same failing stream, whether the failure cuts
// the document or follows it, and a failure that cuts it stays in the
// error's wrap chain (the daemon finds *http.MaxBytesError there).
func TestDecodeReadErrors(t *testing.T) {
	failure := io.ErrClosedPipe
	for _, c := range []struct {
		data string
		cut  bool
	}{{"", true}, {`{"v":1,"algo":"bb"`, true}, {baseDoc, false}, {baseDoc + "  ", false}} {
		got, err := DecodeSolveRequest(replay([]byte(c.data), failure))
		want, wantErr := decodeSolveRequestReference(replay([]byte(c.data), failure))
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() || got != nil || want != nil {
			t.Errorf("%q then a failed read: (%v, %v), reference (%v, %v)", c.data, got, err, want, wantErr)
			continue
		}
		if errors.Is(err, failure) != c.cut || !errors.Is(err, core.ErrBadSpec) {
			t.Errorf("%q then a failed read: error %v wraps the read error: %v, want %v", c.data, err, errors.Is(err, failure), c.cut)
		}
	}
}
