package api

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/graph"
)

// benchBody is one request body of a benchmark shape.
type benchBody struct {
	name string
	doc  []byte
}

// benchBodies returns request bodies shaped like those of the service
// benchmark's exact workloads: compact json.Marshal output of a bb
// request with a sorted 1-based edge list. exact-relabel sends G(150,
// 600) (about 5 KB), exact-cold G(120, 480) (about 4 KB) and
// exact-sparse a planted 20-vertex 2-plex in a sparse graph of 1 050
// vertices (about 27 KB).
func benchBodies(tb testing.TB) []benchBody {
	sparse, _ := graph.PlantedKPlex(1050, 20, 2, 5.0/1049, 3)
	var out []benchBody
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"exact-relabel", graph.Gnm(150, 600, 1)},
		{"exact-cold", graph.Gnm(120, 480, 2)},
		{"exact-sparse", sparse},
	} {
		doc, err := json.Marshal(&SolveRequest{V: Version, Algo: AlgoBB, K: 2, Graph: FromGraph(c.g)})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, benchBody{c.name, doc})
	}
	return out
}

// BenchmarkDecodeSolveRequest decodes each benchmark-shaped body.
func BenchmarkDecodeSolveRequest(b *testing.B) {
	for _, body := range benchBodies(b) {
		b.Run(body.name, func(b *testing.B) {
			b.SetBytes(int64(len(body.doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeSolveRequest(bytes.NewReader(body.doc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
