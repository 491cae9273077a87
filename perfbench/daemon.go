package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"randlocal/internal/serve"
	"randlocal/internal/sim"
)

const (
	// The closed loop has a single client, and the daemon runs one request
	// at a time (-jobs 1) on the sequential engine: requests never queue and
	// one engine thread is busy at a time. On a host of a few shared cores,
	// a full queue or a worker pool's per-round barrier would time the
	// host's scheduler rather than the daemon.
	daemonJobs = 1
	// mixFileN is the size of the graph file the file-backed requests name.
	mixFileN = 1 << 11
	mixFile  = "mix.csr"
	// mixInstances is how many distinct seeds each generated-graph request
	// kind cycles through. The seed of such a request also seeds its graph,
	// and the daemon's engine pool retains slabs per exact graph shape, so
	// repeats keep the pool at a bounded size; they also let the benchmark
	// check that a repeated request reproduces its first outcome.
	// File-backed kinds draw a fresh seed, which only drives the coins, for
	// every request.
	mixInstances = 8
	// daemonSetupReps is how many times a run repeats the set-up; setup_s
	// is the median.
	daemonSetupReps = 3
)

// mixKind is one request shape of the daemon mix; the seed is added per
// request. The client cycles through the kinds in order, so every run
// issues them in the same proportions whatever the workload seed.
//
// The shapes follow the requests of scripts/server_smoke.sh and the README's
// daemon examples — a Luby run on a generated graph, the same on a graph
// file, a faulted Elkin–Neiman run — scaled up so the engines rather than
// HTTP dominate, plus the packed Luby and coloring runs of the experiment
// families. Equal shares are an assumption; no recorded traffic backs them.
type mixKind struct {
	name string
	req  map[string]any
	// fileBacked kinds name the graph file, so their seed drives only the
	// coins and every request may draw a fresh one.
	fileBacked bool
	// faulted kinds attach an adversary; their outcome may legitimately be
	// invalid (the one-sided oracle), so it is checked against an in-process
	// run of the same request instead, for every instance.
	faulted bool
}

var daemonMix = []mixKind{
	{"lubybit-gnp", map[string]any{"algo": "lubybit", "n": 1 << 15}, false, false},
	{"luby-gnp", map[string]any{"algo": "luby", "n": 1 << 13}, false, false},
	{"coloring-regular", map[string]any{"algo": "coloring", "graph": "regular", "n": 1 << 14, "deg": 4}, false, false},
	{"luby-file", map[string]any{"algo": "luby", "graphFile": mixFile}, true, false},
	{"en-file", map[string]any{"algo": "en", "graphFile": mixFile}, true, false},
	{"en-gnp-faulted", map[string]any{"algo": "en", "n": 1 << 10, "adversary": map[string]any{"drop": 0.3, "crash": 4}}, false, true},
}

// request is the JSON body of one request of the kind.
func (k mixKind) request(seed uint64) map[string]any {
	req := map[string]any{"seed": seed}
	for key, v := range k.req {
		req[key] = v
	}
	return req
}

// reference runs the request in-process through the daemon's own executor,
// with the graph file resolved in graphDir, for the cross-check of the
// daemon's outcome.
func (k mixKind) reference(seed uint64, graphDir string) (span, error) {
	body, err := json.Marshal(k.request(seed))
	if err != nil {
		return span{}, err
	}
	var req serve.RunRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return span{}, err
	}
	if req.GraphFile != "" {
		req.GraphFile = filepath.Join(graphDir, req.GraphFile)
	}
	out, err := serve.Execute(req, sim.ExecOptions{})
	if err != nil {
		return span{}, err
	}
	return span{nRounds: out.Rounds, messages: out.Messages, valid: out.Valid}, nil
}

// sameOutcome reports whether two runs of one request agree.
func sameOutcome(a, b span) bool {
	return a.nRounds == b.nRounds && a.messages == b.messages && a.valid == b.valid
}

func runDaemon(opt options) (rep report, err error) {
	graphDir := filepath.Join(opt.work, "graphs")
	if err := os.MkdirAll(graphDir, 0o755); err != nil {
		return rep, err
	}
	var d *daemon
	defer func() {
		if d != nil {
			if serr := d.stop(); serr != nil && err == nil {
				err = serr
			}
		}
	}()
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2},
		Timeout:   60 * time.Second,
	}
	instanceSeed := func(k, j int) uint64 { return mix64(mix64(mix64(opt.seed)+uint64(k)) + uint64(j)) }
	// first holds each instance's first outcome; a repeat must match it.
	first := map[[2]int]span{}
	// warmUp runs every generated-graph instance once, so the engine pool
	// holds its slabs before timing starts, and the file-backed kinds once.
	warmUp := func(base string) error {
		for k, kind := range daemonMix {
			for j := 0; j < mixInstances; j++ {
				if kind.fileBacked && j > 0 {
					break
				}
				inst := [2]int{k, j}
				s, err := submit(hc, base, kind, instanceSeed(k, j), false)
				if err == nil && !s.valid && !kind.faulted {
					err = fmt.Errorf("invalid outcome: %s", s.reject)
				}
				if err != nil {
					return fmt.Errorf("%s warm-up: %w", kind.name, err)
				}
				if f, seen := first[inst]; seen && !sameOutcome(f, s) {
					rep.crossCheck = fmt.Errorf("%s: a restarted daemon gave rounds=%d messages=%d valid=%t, the first rounds=%d messages=%d valid=%t",
						kind.name, s.nRounds, s.messages, s.valid, f.nRounds, f.messages, f.valid)
				}
				first[inst] = s
			}
		}
		return nil
	}

	// The set-up generates the graph file, starts the daemon and warms it
	// up; the warm-up makes it long enough that process start-up, whose
	// time swings widely on a shared host, does not dominate it. Each
	// repetition starts a fresh daemon.
	for r := 0; r < daemonSetupReps; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return rep, err
			}
			d = nil
		}
		path := filepath.Join(graphDir, mixFile)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return rep, err
		}
		t0 := time.Now()
		if err := csrgen(opt, "-graph", "gnp", "-n", fmt.Sprint(mixFileN), "-seed", fmt.Sprint(opt.seed), "-o", path); err != nil {
			return rep, err
		}
		t1 := time.Now()
		if d, err = startDaemon(opt, graphDir); err != nil {
			return rep, err
		}
		if err := warmUp(d.base); err != nil {
			return rep, err
		}
		rep.setup.total = append(rep.setup.total, time.Since(t0))
		rep.setup.build = append(rep.setup.build, t1.Sub(t0))
	}

	// Cross-check: instance 0 of every kind, and every instance of a faulted
	// kind, must match the in-process run of the same request.
	for k, kind := range daemonMix {
		for j := 0; j < mixInstances; j++ {
			if kind.fileBacked && j > 0 {
				break
			}
			if j > 0 && !kind.faulted {
				continue
			}
			s := first[[2]int{k, j}]
			ref, err := kind.reference(instanceSeed(k, j), graphDir)
			if err != nil {
				return rep, fmt.Errorf("%s reference: %w", kind.name, err)
			}
			if !sameOutcome(s, ref) {
				rep.crossCheck = fmt.Errorf("%s: daemon rounds=%d messages=%d valid=%t, in-process rounds=%d messages=%d valid=%t",
					kind.name, s.nRounds, s.messages, s.valid, ref.nRounds, ref.messages, ref.valid)
			}
		}
	}

	cpu0 := d.cpu()
	start := time.Now()
	deadline := start.Add(time.Duration(opt.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % len(daemonMix)
		kind := daemonMix[k]
		inst := [2]int{k, (i / len(daemonMix)) % mixInstances}
		if kind.fileBacked {
			inst[1] = 1 + i/len(daemonMix)
		}
		s, err := submit(hc, d.base, kind, instanceSeed(inst[0], inst[1]), opt.trace)
		rep.win.attempted++
		if f, seen := first[inst]; err == nil && seen && !sameOutcome(f, s) {
			err = fmt.Errorf("repeat gave rounds=%d messages=%d valid=%t, first run rounds=%d messages=%d valid=%t",
				s.nRounds, s.messages, s.valid, f.nRounds, f.messages, f.valid)
		}
		if err == nil && !s.valid && !kind.faulted {
			err = fmt.Errorf("invalid outcome: %s", s.reject)
		}
		if err != nil {
			rep.win.failed++
			fmt.Fprintf(os.Stderr, "perfbench: request %d (%s): %v\n", i, kind.name, err)
			continue
		}
		s.kind = k
		rep.win.spans = append(rep.win.spans, s)
	}
	rep.win.cpu = d.cpu() - cpu0
	rep.peakRSSMB = peakRSSMB(d.cmd.Process.Pid)
	return rep, nil
}

// outcome is the slice of the daemon's run view the benchmark checks.
type outcome struct {
	Status  string `json:"status"`
	Error   string `json:"error"`
	Outcome *struct {
		Valid    bool   `json:"valid"`
		Reject   string `json:"reject"`
		Rounds   int    `json:"rounds"`
		Messages int64  `json:"messages"`
	} `json:"outcome"`
}

// submit posts one request and follows its SSE stream to the terminal event;
// an outcome the checker rejected is returned, not an error. Latency runs from the POST to the done event; traced requests also stamp
// the first and last progress events.
func submit(hc *http.Client, base string, kind mixKind, seed uint64, trace bool) (span, error) {
	var s span
	body, err := json.Marshal(kind.request(seed))
	if err != nil {
		return s, err
	}
	t0 := time.Now()
	resp, err := hc.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return s, err
	}
	var acc struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil || acc.ID == "" {
		return s, fmt.Errorf("submit: HTTP %d (%v)", resp.StatusCode, err)
	}
	t1 := time.Now()

	resp, err = hc.Get(base + "/v1/runs/" + acc.ID + "/stream")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	var first, last time.Time
	var done []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	event := ""
	for done == nil && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "progress":
			if trace {
				last = time.Now()
				if first.IsZero() {
					first = last
				}
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			done = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	t2 := time.Now()
	if done == nil {
		return s, fmt.Errorf("stream ended without a done event (%v)", sc.Err())
	}
	var out outcome
	if err := json.Unmarshal(done, &out); err != nil {
		return s, fmt.Errorf("done event: %w", err)
	}
	if out.Status != "done" || out.Outcome == nil {
		return s, fmt.Errorf("run %s: status %q: %s", acc.ID, out.Status, out.Error)
	}
	s.total = t2.Sub(t0)
	s.nRounds = out.Outcome.Rounds
	s.messages = out.Outcome.Messages
	s.valid = out.Outcome.Valid
	s.reject = out.Outcome.Reject
	if trace {
		s.submit = t1.Sub(t0)
		if !first.IsZero() {
			s.prepare = first.Sub(t1)
			s.rounds = last.Sub(first)
			s.finish = t2.Sub(last)
		}
	}
	return s, nil
}

// daemon is a running locsimd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once the stderr reader has seen EOF
}

// startDaemon launches locsimd on an ephemeral loopback port and returns
// once it answers /healthz.
func startDaemon(opt options, graphDir string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(opt.bin, "locsimd"),
		"-addr", "127.0.0.1:0", "-jobs", fmt.Sprint(daemonJobs), "-backlog", "16", "-graphdir", graphDir)
	// The kernel kills the daemon if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "locsimd: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
			fmt.Fprintln(os.Stderr, line)
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("locsimd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("locsimd did not report its address")
	}
	for tries := 0; ; tries++ {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if tries == 1000 {
			d.stop()
			return nil, fmt.Errorf("locsimd never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM (a graceful drain), escalates to SIGKILL after 20 s,
// and returns once the process has exited. Call it once per daemon.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("locsimd: %w", err)
	}
	return nil
}

// cpu is the daemon's user+system CPU time so far, from /proc (0 when
// unavailable).
func (d *daemon) cpu() time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 12th and 13th of them, in clock ticks (USER_HZ = 100 on Linux).
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	var ut, st int64
	fmt.Sscan(f[11], &ut)
	fmt.Sscan(f[12], &st)
	return time.Duration(ut+st) * 10 * time.Millisecond
}
