// Command bench is the repository's benchmark: it spawns the real
// cmd/qmkpd binary with GOMAXPROCS=1, drives it over loopback HTTP with
// one closed-loop client on one keep-alive connection, checks every
// answer, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced in-process replay) as the last line of
// standard output. See README.md for the workloads and metrics.
//
// Usage (from the repository root, after building qmkpd):
//
//	bench -workload exact-cold -seed 1 -seconds 15 -trace 0 -qmkpd .bench_build/qmkpd
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	qmkpd    string // path to the qmkpd binary
	outDir   string // where the traced run writes its spans
	sz       sizes
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host is printed on the line before the result, so a noisy run can be
// identified later.
type host struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	StealShare  float64 `json:"steal_share"`
	DaemonCPU   int     `json:"daemon_cpu"`
	DaemonSteal float64 `json:"daemon_cpu_steal_share"`
	DaemonProcs int     `json:"daemon_gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	NProc       int     `json:"nproc"`
	Attempted   int     `json:"attempted"`
	Completed   int     `json:"completed"`
	Failed      int     `json:"failed"`
	FailedRatio float64 `json:"failed_ratio"`
	// The reference loop's median in the timed phase and over the
	// set-ups (see calibrate.go), and the time metrics before scaling.
	RefMs      float64            `json:"ref_ms"`
	SetupRefMs float64            `json:"setup_ref_ms"`
	Raw        map[string]float64 `json:"raw"`
	Problems   []string           `json:"problems,omitempty"`
}

func main() {
	cfg := config{sz: fullSizes}
	flag.StringVar(&cfg.workload, "workload", "", "exact-cold | exact-relabel | exact-sparse | quantum-paper")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same requests")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 adds the traced replay and prints the per-layer metrics instead")
	flag.StringVar(&cfg.qmkpd, "qmkpd", ".bench_build/qmkpd", "qmkpd binary to spawn")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for the traced run's span file")
	flag.Parse()
	cfg.trace = *traced == 1
	if _, ok := workloads[cfg.workload]; !ok || (*traced != 0 && *traced != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: need -workload one of %v, -trace 0|1 and -seconds > 0\n", workloadNames)
		os.Exit(2)
	}
	res, h, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]*host{"host": h}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// run measures one workload and returns the result line.
func run(cfg config) (*result, *host, error) {
	wl := workloads[cfg.workload]
	m, err := measure(cfg, wl)
	if err != nil {
		return nil, nil, err
	}
	h := &host{
		Workload: wl.name, Seed: cfg.seed, StealShare: m.stealShare, DaemonCPU: m.cpuID, DaemonSteal: m.daemonSteal,
		DaemonProcs: daemonProcs, GoVersion: runtime.Version(), NProc: m.nproc,
		Attempted: len(m.samples), Completed: len(m.samples) - m.failed, Failed: m.failed,
		FailedRatio: float64(m.failed) / float64(len(m.samples)),
		RefMs:       quantile(m.ref, 0.5), SetupRefMs: quantile(m.setupRef, 0.5), Raw: m.times(0),
	}
	metrics := m.endToEnd(wl)
	if cfg.trace {
		start := time.Now()
		metrics, err = traceRun(cfg, wl, m)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "bench: traced replay took %.1fs\n", time.Since(start).Seconds())
	}
	h.Problems = m.problems
	failed := m.failed
	if len(m.problems) > 0 {
		// A run that breaks a workload's premise is failed, not timed.
		failed = len(m.samples)
		for _, p := range m.problems {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", p)
		}
	}
	return &result{Correct: failed == 0, Attempted: len(m.samples), Failed: failed, Metrics: metrics}, h, nil
}
