// Command perfbench is randlocal's end-to-end benchmark. It builds its
// inputs from a seed, runs one workload for a fixed wall-clock window,
// checks every output, and prints one JSON result line. From the root of
// the repository:
//
//	bash perfbench/run.sh --workload lubybit-file --seed 1 --seconds 45 --trace 0
//
// run.sh builds this program, locsimd and csrgen from the checkout and
// passes their directory as --bin and a scratch directory as --work.
//
// Workloads — each stresses a different stack of layers:
//
//   - lubybit-file: the 1-bit coin-flip Luby MIS over packed bit planes on
//     the sequential engine, over a gnp graph of 2^18 nodes that csrgen
//     streams to the on-disk CSR format and OpenCSRFile maps read-only. The
//     graph is fixed per run; every operation draws fresh coins. Engine
//     setup (program construction, Init, per-node randomness streams) and
//     the rounds' random reads of the mapped adjacency and the packed
//     planes, across a working set far larger than the caches, dominate it.
//   - daemon-mix: one closed-loop client against a locsimd process (one
//     run at a time) over loopback HTTP, cycling through a fixed mix of
//     small requests: packed and full-width Luby and coloring on generated
//     graphs, Luby and an Elkin–Neiman decomposition on a graph file, and a
//     faulted Elkin–Neiman run. Exercises request decoding and
//     validation, the run queue, per-request graph construction, graph-file
//     resolution and mapping, the adversary, pooled engines, checking,
//     encoding and SSE streaming.
//
// The algorithms' work per operation barely depends on the coins, except
// Elkin–Neiman's, whose phase count varies widely; its file-backed requests
// draw fresh coins each time, so a window averages over many of them.
//
// With --trace 0 the result carries the end-to-end metrics: latency_ms
// (interquartile mean operation latency; for daemon-mix the geometric mean
// of the per-kind interquartile means) and setup_s (median of repeated
// set-ups: graph build and map for lubybit-file; graph file, daemon start
// and warm-up for daemon-mix). With --trace 1 the same loop runs with spans recorded around
// every call into a layer, and the result carries the per-layer metrics
// instead: medians per operation of each span (for daemon-mix, per request
// kind and combined over the kinds by geometric mean), the 90th-percentile
// latency combined the same way and the number of operations it rests on,
// the engine's round and message counts, heap allocations, CPU time per
// operation and the peak resident set of the measured loop (of locsimd for
// daemon-mix). A metric
// whose layer the workload does not pass through, or cannot see from
// outside the daemon, reads 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"syscall"
	"time"
)

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	bin     string // directory holding the locsimd and csrgen binaries
	work    string // scratch directory for generated graph files
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// span records the layer boundaries of one operation, as offsets from its
// start. Zero fields belong to layers the workload does not pass through.
type span struct {
	kind     int           // request kind within a mixed workload (0 otherwise)
	total    time.Duration // start → outcome in hand: the latency
	submit   time.Duration // daemon: the POST round trip
	prepare  time.Duration // → end of round 0: queueing, graph, engine setup, round 0
	rounds   time.Duration // end of round 0 → end of the last round
	finish   time.Duration // end of the last round → outcome: result assembly (daemon: check, encode)
	check    time.Duration // in-process checker, after the outcome
	nRounds  int
	messages int64
	valid    bool   // daemon: the outcome passed the daemon's checker
	reject   string // daemon: the checker's reason otherwise
	allocs   uint64 // heap allocations during the operation
	bytes    uint64 // heap bytes allocated during the operation
	gcs      uint32 // GC cycles completed during the operation
}

// window is what one measured loop produced.
type window struct {
	spans     []span
	attempted int
	failed    int
	cpu       time.Duration // CPU time of the process doing the work, over the window
}

// setupTimes are the layer timings of the repeated set-up.
type setupTimes struct {
	total    []time.Duration
	build    []time.Duration // graph construction (in RAM or streamed to a file)
	graphMap []time.Duration // mapping a graph file
}

// workload runs one benchmark workload and returns its set-up timings, the
// measured window, the node count per operation (for per-node ratios), the
// resident-set peak, and whether its cross-checks held.
type workload func(opt options) (report, error)

type report struct {
	setup      setupTimes
	win        window
	nodes      int
	peakRSSMB  float64
	crossCheck error
}

var workloads = map[string]workload{
	"lubybit-file": runLubyFile,
	"daemon-mix":   runDaemon,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: lubybit-file | daemon-mix")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	bin := flag.String("bin", "", "directory with the locsimd and csrgen binaries")
	work := flag.String("work", "", "scratch directory for generated files")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *bin == "" || *work == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --bin, --work and a positive --seconds are required")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, work: *work}
	rep, err := w(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if rep.crossCheck != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: cross-check failed: %v\n", *name, rep.crossCheck)
	}
	if len(rep.win.spans) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation completed\n", *name)
		return 1
	}
	res := result{
		Correct:   rep.crossCheck == nil && rep.win.failed == 0,
		Attempted: rep.win.attempted,
		Failed:    rep.win.failed,
	}
	if opt.trace {
		res.Metrics = layerMetrics(rep)
	} else {
		res.Metrics = endToEndMetrics(rep)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func endToEndMetrics(rep report) map[string]metric {
	return map[string]metric{
		"latency_ms": {latencyMS(rep.win.spans), "ms"},
		"setup_s":    {medianMS(rep.setup.total) / 1e3, "s"},
	}
}

func layerMetrics(rep report) map[string]metric {
	w := rep.win
	perNode := 0.0
	if rep.nodes > 0 {
		perNode = 1 / float64(rep.nodes)
	}
	layer := func(f func(span) float64) float64 { return perKind(w.spans, median, f) }
	return map[string]metric{
		"graph_build_ms": {medianMS(rep.setup.build), "ms"},
		"graph_map_ms":   {medianMS(rep.setup.graphMap), "ms"},
		"submit_ms":      {layer(func(s span) float64 { return ms(s.submit) }), "ms"},
		"prepare_ms":     {layer(func(s span) float64 { return ms(s.prepare) }), "ms"},
		"rounds_ms":      {layer(func(s span) float64 { return ms(s.rounds) }), "ms"},
		"round_us": {layer(func(s span) float64 {
			if s.nRounds < 2 {
				return 0
			}
			return ms(s.rounds) * 1e3 / float64(s.nRounds-1)
		}), "us"},
		"finish_ms":       {layer(func(s span) float64 { return ms(s.finish) }), "ms"},
		"check_ms":        {layer(func(s span) float64 { return ms(s.check) }), "ms"},
		"rounds":          {layer(func(s span) float64 { return float64(s.nRounds) }), "count"},
		"messages":        {layer(func(s span) float64 { return float64(s.messages) }), "count"},
		"allocs_per_node": {layer(func(s span) float64 { return float64(s.allocs) * perNode }), "count"},
		"alloc_mb":        {layer(func(s span) float64 { return float64(s.bytes) / (1 << 20) }), "MiB"},
		"gc_cycles":       {layer(func(s span) float64 { return float64(s.gcs) }), "count"},
		"latency_p90_ms":  {perKind(w.spans, p90, func(s span) float64 { return ms(s.total) }), "ms"},
		"operations":      {float64(len(w.spans)), "count"},
		"cpu_ms":          {ms(w.cpu) / float64(len(w.spans)), "ms"},
		"peak_rss_mb":     {rep.peakRSSMB, "MiB"},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latencyMS is the interquartile mean (the mean of the middle half) of each
// request kind's latencies, combined over the kinds by geometric mean; for
// a single-kind workload, the plain interquartile mean. Like a median, it
// ignores stray slow operations; unlike one, it does not jump from one
// cluster to the other when a garbage collection lands in some operations
// and not in others, which makes a kind's latencies bimodal.
func latencyMS(spans []span) float64 {
	return perKind(spans, interquartileMean, func(s span) float64 { return ms(s.total) })
}

// perKind applies stat to each request kind's values of f and combines the
// kinds by geometric mean, so that every kind weighs the same whatever its
// size: the mean of a mix of kinds would weigh the slowest kind most, and
// its median would describe whichever kind lands in the middle. A kind
// whose statistic is 0 (a layer it does not pass through) makes it 0.
func perKind(spans []span, stat func([]float64) float64, f func(span) float64) float64 {
	byKind := map[int][]float64{}
	for _, s := range spans {
		byKind[s.kind] = append(byKind[s.kind], f(s))
	}
	if len(byKind) == 1 {
		return stat(byKind[spans[0].kind])
	}
	logSum := 0.0
	for _, xs := range byKind {
		x := stat(xs)
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(byKind)))
}

// interquartileMean sorts xs in place and averages all but the lowest and
// the highest quarter; for fewer than four values it is the median.
func interquartileMean(xs []float64) float64 {
	if len(xs) < 4 {
		return median(xs)
	}
	slices.Sort(xs)
	q := len(xs) / 4
	sum := 0.0
	for _, x := range xs[q : len(xs)-q] {
		sum += x
	}
	return sum / float64(len(xs)-2*q)
}

// p90 sorts xs in place and returns its 90th percentile (nearest rank); 0
// for an empty slice.
func p90(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[(len(xs)*9+9)/10-1]
}

func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// median sorts xs in place; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM) from
// /proc; pid 0 means this process. 0 when unavailable.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// mix64 derives well-separated sub-seeds from the workload seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
