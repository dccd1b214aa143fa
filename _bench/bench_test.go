package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload end to end at the tiny scale, untraced
// and traced, and checks that each run is correct and prints exactly the
// metrics BENCHMARK.json names, each with its unit. The traced runs of
// one seed twice must report identical work counts.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns qmkpd")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "qmkpd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/qmkpd").CombinedOutput(); err != nil {
		t.Fatalf("building qmkpd: %v\n%s", err, out)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, workloadNames)
	}
	for _, name := range names {
		if workloads[name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			cfg := config{workload: name, seed: 3, seconds: 0.3, trace: traced, qmkpd: bin, outDir: dir, sz: tinySizes}
			res, h, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, h.Problems)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, w := range want {
				if got, ok := res.Metrics[w.Name]; !ok || got.Unit != w.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", name, traced, w.Name, got, ok, w.Unit)
				}
			}
		}
	}
}

// TestDeterministicWork runs one seed's traced run twice: every request
// both runs replayed must report the same work in every span.
func TestDeterministicWork(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns qmkpd")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "qmkpd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/qmkpd").CombinedOutput(); err != nil {
		t.Fatalf("building qmkpd: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		var runs [2]map[int][]span
		for rep := range runs {
			out := filepath.Join(dir, fmt.Sprint(rep))
			cfg := config{workload: name, seed: 5, seconds: 0.3, trace: true, qmkpd: bin, outDir: out, sz: tinySizes}
			if _, _, err := run(cfg); err != nil {
				t.Fatal(err)
			}
			runs[rep] = readSpans(t, filepath.Join(out, fmt.Sprintf("trace-%s-seed5.jsonl", name)))
		}
		compared := 0
		for req, a := range runs[0] {
			b, ok := runs[1][req]
			if !ok {
				continue
			}
			compared++
			if len(a) != len(b) {
				t.Fatalf("%s request %d: %d spans, then %d", name, req, len(a), len(b))
			}
			for i := range a {
				if a[i].Name != b[i].Name || !reflect.DeepEqual(a[i].Work, b[i].Work) {
					t.Errorf("%s request %d: %s %v, then %s %v", name, req, a[i].Name, a[i].Work, b[i].Name, b[i].Work)
				}
			}
		}
		if compared == 0 {
			t.Errorf("%s: no request replayed in both runs", name)
		}
	}
}

// readSpans groups a span file by request.
func readSpans(t *testing.T, path string) map[int][]span {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[int][]span{}
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		out[s.Req] = append(out[s.Req], s)
	}
	return out
}
