package main

import (
	"math/bits"
	"sort"
	"strconv"
	"time"
)

// The host this benchmark runs on is shared: over tens of seconds the
// same request can take half as long again, or twice as long, and the
// run-to-run spread of raw times swamps any bound a regression check
// could use. So the benchmark times a fixed reference loop, its own code
// and independent of the program under test, on the CPU the daemon runs
// on, with the daemon paused: before each set-up, and in a block every
// refEvery of the timed phase. Each set-up, and each request's latency
// and share of the timed phase, is reported scaled by refNominal / (the
// median of the loops just before it), raised to the workload's
// hostShare: time on a host where the loop takes refNominal. A change to
// the program moves the scaled times as it moves the raw ones; a change
// of the host's speed moves the requests and the loop together, the
// requests of some workloads by a smaller power of the loop's factor,
// which hostShare records. The raw times are in the host record.
//
// The loop is a miniature of the daemon's kind of work rather than a
// synthetic kernel: a multiply-hash loop with a 128 KiB bit-set stream
// took up to 80 % longer when the host slowed, while the requests of
// quantum-paper took a fifth longer and those of exact-cold hardly
// longer at all, so scaling by it widened their spread.

// refNominal is the reference loop's time the scaled metrics are
// expressed against, about its median on a two-vCPU x86-64 cloud VM
// (Sapphire Rapids, KVM).
const refNominal = 700 * time.Microsecond

// Every refEvery the timed phase runs refBlock reference loops, about 2 %
// of the phase; refPerSetup loops run before each set-up.
const (
	refEvery    = 250 * time.Millisecond
	refBlock    = 4
	refPerSetup = 16
)

// refN is the reference graph's order; it has 4·refN edges, the density
// of exact-cold and exact-relabel.
const refN = 256

var refEdges = refGraph()

func refGraph() [][2]int {
	x := uint64(99)
	next := func() int {
		x = x*6364136223846793005 + 1442695040888963407
		return int(x>>33) % refN
	}
	seen := map[[2]int]bool{}
	var edges [][2]int
	for len(edges) < 4*refN {
		u, v := next(), next()
		if u > v {
			u, v = v, u
		}
		if u != v && !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			edges = append(edges, [2]int{u, v})
		}
	}
	return edges
}

// refSink keeps the loop's result alive.
var refSink uint64

// refLoop runs the reference loop once: it writes the reference graph's
// edge list as text and parses it back, builds dense bit-set rows, peels
// vertices by minimum degree, and runs three rounds of colour refinement
// with a map and a sort.
func refLoop() {
	buf := make([]byte, 0, 16*len(refEdges))
	for _, e := range refEdges {
		buf = strconv.AppendInt(buf, int64(e[0]), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e[1]), 10)
		buf = append(buf, ';')
	}
	var edges [][2]int
	u, cur := 0, 0
	for _, c := range buf {
		switch c {
		case ',':
			u, cur = cur, 0
		case ';':
			edges = append(edges, [2]int{u, cur})
			cur = 0
		default:
			cur = cur*10 + int(c-'0')
		}
	}

	const words = (refN + 63) / 64
	rows := make([][words]uint64, refN)
	for _, e := range edges {
		rows[e[0]][e[1]/64] |= 1 << (e[1] % 64)
		rows[e[1]][e[0]/64] |= 1 << (e[0] % 64)
	}

	var alive [words]uint64
	for v := 0; v < refN; v++ {
		alive[v/64] |= 1 << (v % 64)
	}
	deg := make([]int, refN)
	for v := range deg {
		for w := range alive {
			deg[v] += bits.OnesCount64(rows[v][w] & alive[w])
		}
	}
	order := make([]int, 0, refN)
	for len(order) < refN {
		best := -1
		for v := 0; v < refN; v++ {
			if alive[v/64]>>(v%64)&1 == 1 && (best < 0 || deg[v] < deg[best]) {
				best = v
			}
		}
		alive[best/64] &^= 1 << (best % 64)
		order = append(order, best)
		for w := range rows[best] {
			for m := rows[best][w] & alive[w]; m != 0; m &= m - 1 {
				deg[w*64+bits.TrailingZeros64(m)]--
			}
		}
	}

	color := make([]uint64, refN)
	for round := 0; round < 3; round++ {
		sig := make([]uint64, refN)
		for v := range sig {
			h := color[v]*0x9e3779b97f4a7c15 + 1
			for w := range rows[v] {
				for m := rows[v][w]; m != 0; m &= m - 1 {
					z := color[w*64+bits.TrailingZeros64(m)] + 0x632be59bd9b4e019
					z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
					h += z ^ z>>27
				}
			}
			sig[v] = h
		}
		sorted := append([]uint64(nil), sig...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		ids := map[uint64]int{}
		for _, s := range sorted {
			if _, ok := ids[s]; !ok {
				ids[s] = len(ids)
			}
		}
		for v := range color {
			color[v] = uint64(ids[sig[v]])
		}
	}
	refSink ^= color[order[0]] + uint64(len(order))
}

// timeRef runs the reference loop once to warm the caches the
// daemon's work left cold, then n times more, and returns each of those
// times in milliseconds.
func timeRef(n int) []float64 {
	refLoop()
	out := make([]float64, n)
	for i := range out {
		t := time.Now()
		refLoop()
		out[i] = float64(time.Since(t)) / float64(time.Millisecond)
	}
	return out
}

// refScale turns a time measured alongside reference loops whose median
// is medianMs into reference-host time.
func refScale(medianMs float64) float64 {
	return float64(refNominal) / float64(time.Millisecond) / medianMs
}
