package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzDecodeSolveRequest drives the shared request validation with
// arbitrary bytes. Every document either decodes or fails with an error
// wrapping core.ErrBadSpec, never a panic, and an accepted request
// survives encode → decode unchanged. The decoder is also held to the
// encoding/json reference: deep-equal requests or identical error
// texts, and a document the byte-level scanner takes decodes to the
// same request under encoding/json. The target never calls
// Graph.Build: the daemon caps n before it builds, so a fuzzed vertex
// count must not reach the allocation.
func FuzzDecodeSolveRequest(f *testing.F) {
	sample, err := json.Marshal(sampleRequest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	for _, doc := range []string{
		`{"v":1,"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]}}`,
		`{"v":1,"algo":"qamkp","k":2,"graph":{"n":3,"edges":[[1,2],[2,3]]},"anneal":{"r":0.5}}`,
		`{"v":1,"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]},"frobnicate":true}`,
		`{"v":2,"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]}}`,
		`{"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]}}`,
		`{"v":1,"algo":"sat","k":2,"graph":{"n":2,"edges":[[1,2]]}}`,
		`{"v":1,"algo":"bb","k":0,"graph":{"n":2,"edges":[[1,2]]}}`,
		`{"v":1,"algo":"qtkp","k":2,"graph":{"n":2,"edges":[[1,2]]}}`,
		`{"v":1,"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]},"timeout_ms":-1}`,
		`{"v":1,"algo":"bb","k":2,"graph":{"n":2,"edges":[[1,2]]}} {"again":true}`,
		`{"v":1,"algo":"greedy","k":2,"graph":{"n":3,"edges":[[1,2]]}}]`,
		`{"v":1,"algo":"greedy","k":2,"graph":{"n":3,"edges":[[1,2]]}}}`,
		`{"v":1,"algo":"bb"`,
		`p edge 5 4`,
	} {
		f.Add([]byte(doc))
	}
	for _, c := range decodeCases {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
		req, err := DecodeSolveRequest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, core.ErrBadSpec) {
				t.Fatalf("decode error %v does not wrap ErrBadSpec", err)
			}
			return
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("encode accepted request: %v", err)
		}
		back, err := DecodeSolveRequest(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decode of %s: %v", enc, err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("round trip changed the request:\n in: %+v\nout: %+v", req, back)
		}
	})
}
