package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"randlocal"
	"randlocal/internal/sim"
)

const (
	// lubyN is the graph size of lubybit-file: 2^18 nodes, a quarter of the
	// largest size of the repository's engine benchmarks
	// (BenchmarkLubyPacked, BenchmarkLubyPackedFile). The working set stays
	// far larger than the caches, and an operation takes about a second, so
	// a window holds dozens of them. lubyP gives the benchmarks' average
	// degree 6. The engine is the sequential one: on a
	// host of a few shared cores, a pool's per-round barrier waits on
	// whichever worker the host preempted, and times that instead.
	lubyN = 1 << 18
	lubyP = 6.0 / lubyN
	// lubySetupReps repeats the streaming build of most of a second.
	lubySetupReps = 5
)

// roundClock is the Progress hook of a traced operation: it stamps the end
// of the first and the last round.
type roundClock struct {
	first, last time.Time
	ticks       int
}

func (c *roundClock) tick(sim.Progress) {
	now := time.Now()
	if c.ticks == 0 {
		c.first = now
	}
	c.last = now
	c.ticks++
}

// engineRun is one in-process algorithm call: it runs with the given
// progress hook (nil when untraced) and returns the engine accounting plus
// a checker for its output.
type engineRun func(hook func(sim.Progress)) (rounds int, messages int64, check func() error, err error)

// timeEngineOp runs one operation and fills its span: latency is the
// algorithm call alone; the checker runs after it, timed separately.
func timeEngineOp(trace bool, call engineRun) (span, error) {
	var clk roundClock
	var hook func(sim.Progress)
	var before runtime.MemStats
	if trace {
		hook = clk.tick
		runtime.ReadMemStats(&before)
	}
	t0 := time.Now()
	rounds, msgs, check, err := call(hook)
	t1 := time.Now()
	if err != nil {
		return span{}, err
	}
	s := span{total: t1.Sub(t0), nRounds: rounds, messages: msgs}
	if trace {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		s.allocs = after.Mallocs - before.Mallocs
		s.bytes = after.TotalAlloc - before.TotalAlloc
		s.gcs = after.NumGC - before.NumGC
		if clk.ticks > 0 {
			s.prepare = clk.first.Sub(t0)
			s.rounds = clk.last.Sub(clk.first)
			s.finish = t1.Sub(clk.last)
		}
	}
	c0 := time.Now()
	err = check()
	s.check = time.Since(c0)
	return s, err
}

// measureLoop runs op back to back until the window closes; a failed
// operation counts as attempted and failed. A collection before each
// operation clears the previous one's garbage, so every operation starts
// from the same heap, as a single run in a fresh process would.
func measureLoop(opt options, op func(i int) (span, error)) window {
	var w window
	cpu0 := selfCPU()
	start := time.Now()
	deadline := start.Add(time.Duration(opt.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		runtime.GC()
		w.attempted++
		s, err := op(i)
		if err != nil {
			w.failed++
			fmt.Fprintf(os.Stderr, "perfbench: operation %d: %v\n", i, err)
			continue
		}
		w.spans = append(w.spans, s)
	}
	w.cpu = selfCPU() - cpu0
	return w
}

// coinSeed is the randomness-source seed of operation i; the warm-up and
// cross-check runs use i = -1.
func coinSeed(seed uint64, i int) uint64 { return mix64(mix64(seed) + uint64(i+1)) }

func runLubyFile(opt options) (report, error) {
	var rep report
	path := filepath.Join(opt.work, "luby.csr")
	var g *randlocal.Graph
	var mapping io.Closer
	defer func() {
		if mapping != nil {
			mapping.Close()
		}
	}()
	for r := 0; r < lubySetupReps; r++ {
		if mapping != nil {
			mapping.Close()
			mapping = nil
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return rep, err
		}
		runtime.GC()
		t0 := time.Now()
		if err := csrgen(opt, "-graph", "gnp", "-n", fmt.Sprint(lubyN), "-p", fmt.Sprint(lubyP), "-seed", fmt.Sprint(opt.seed), "-o", path); err != nil {
			return rep, err
		}
		t1 := time.Now()
		var err error
		if g, mapping, err = randlocal.OpenCSRFile(path); err != nil {
			return rep, err
		}
		t2 := time.Now()
		rep.setup.total = append(rep.setup.total, t2.Sub(t0))
		rep.setup.build = append(rep.setup.build, t1.Sub(t0))
		rep.setup.graphMap = append(rep.setup.graphMap, t2.Sub(t1))
	}
	rep.nodes = lubyN

	lubyCall := func(g *randlocal.Graph, i int, unpacked bool, mis *[]bool) engineRun {
		return func(hook func(sim.Progress)) (int, int64, func() error, error) {
			var cfg randlocal.LubyBitConfig
			cfg.Unpacked = unpacked
			cfg.Exec.Scheduler = randlocal.SchedulerSequential
			cfg.Exec.Progress = hook
			in, res, err := randlocal.LubyBit(g, randlocal.NewFullRandomness(coinSeed(opt.seed, i)), nil, cfg)
			if err != nil {
				return 0, 0, nil, err
			}
			if mis != nil {
				*mis = in
			}
			return res.Rounds, res.Messages, func() error { return randlocal.CheckMIS(g, in) }, nil
		}
	}

	// The warm-up is the measured operation with the cross-check's coins.
	var fromFile, inRAM []bool
	fs, err := timeEngineOp(false, lubyCall(g, -1, false, &fromFile))
	if err != nil {
		return rep, fmt.Errorf("warm-up: %w", err)
	}
	rep.win = measureLoop(opt, func(i int) (span, error) {
		return timeEngineOp(opt.trace, lubyCall(g, i, false, nil))
	})
	// The peak is read before the cross-check, whose in-RAM graph and
	// full-width planes would otherwise set it.
	rep.peakRSSMB = peakRSSMB(0)

	// Cross-check: the same graph generated in RAM from the same seed, run
	// with the same coins over full-width planes, must give the same
	// independent set as the packed run over the mapped file.
	ram := randlocal.GNPConnected(lubyN, lubyP, randlocal.NewRNG(opt.seed))
	rs, err := timeEngineOp(false, lubyCall(ram, -1, true, &inRAM))
	if err != nil {
		return rep, fmt.Errorf("in-RAM unpacked cross-check: %w", err)
	}
	if fs.nRounds != rs.nRounds || fs.messages != rs.messages || !slices.Equal(fromFile, inRAM) {
		rep.crossCheck = fmt.Errorf("packed run over the file (rounds=%d messages=%d) differs from unpacked run in RAM (rounds=%d messages=%d)",
			fs.nRounds, fs.messages, rs.nRounds, rs.messages)
	}
	return rep, nil
}

// csrgen runs the csrgen binary, which streams a generated graph into the
// on-disk CSR format.
func csrgen(opt options, args ...string) error {
	cmd := exec.Command(filepath.Join(opt.bin, "csrgen"), args...)
	cmd.Stderr = os.Stderr
	if out, err := cmd.Output(); err != nil {
		return fmt.Errorf("csrgen %v: %w (%s)", args, err, out)
	}
	return nil
}
