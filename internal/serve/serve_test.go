package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"randlocal/internal/graph"
	"randlocal/internal/mis"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

// invalidRequests must fail Validate; feasibleRequests are shapes of the
// guarded families that must pass. FuzzRunRequest seeds from both.
var (
	invalidRequests = []RunRequest{
		{N: 64},                                 // missing algo
		{Algo: "nope", N: 64},                   // unknown algo
		{Algo: "luby", N: 0},                    // n
		{Algo: "luby", N: MaxN + 1},             // over cap
		{Algo: "luby", N: 64, Graph: "torus"},   // unknown family
		{Algo: "luby", N: 64, P: 1.5},           // p out of range
		{Algo: "luby", N: 64, Scheduler: "gpu"}, // bad scheduler
		{Algo: "luby", N: 64, Adversary: AdversaryKnobs{Drop: -0.1}},
		{Algo: "luby", N: 64, Adversary: AdversaryKnobs{Drop: 0.6, Delay: 0.6}}, // sum over 1
		{Algo: "luby", N: 64, Adversary: AdversaryKnobs{Delay: 0.1, DelayMax: -1}},
		{Algo: "luby", N: 64, Deg: -1},                    // negative deg
		{Algo: "luby", N: 3, Graph: "cliques"},            // RingOfCliques(0, 4) would panic
		{Algo: "luby", N: 4, Graph: "regular", Deg: 4},    // deg >= n
		{Algo: "luby", N: 64, Graph: "regular", Deg: 100}, // deg >= n
		{Algo: "luby", N: 5, Graph: "regular", Deg: 3},    // n*deg odd
		{Algo: "luby", N: 5, Graph: "regular"},            // default deg 3, n*deg odd
		{Algo: "luby", N: 64, Graph: "regular", Deg: -2},  // negative deg
		{Algo: "luby", N: 16, Graph: "regular", Deg: 15},  // deg > n/2: the repair panics
		// Legal n, but far more than MaxHalfEdges expected half-edges.
		{Algo: "luby", N: MaxN, Graph: "gnp", P: 1},
		{Algo: "luby", N: MaxN, Graph: "regular", Deg: MaxN / 2},
		{Algo: "luby", N: MaxN, Graph: "regular", Deg: 18},
	}
	feasibleRequests = []RunRequest{
		{Algo: "luby", N: 4, Seed: 1, Graph: "cliques"},
		{Algo: "luby", N: 64, Seed: 1, Graph: "regular"},
		{Algo: "luby", N: 64, Seed: 1, Graph: "regular", Deg: 4},
		{Algo: "luby", N: 16, Seed: 1, Graph: "regular", Deg: 8},
		{Algo: "luby", N: MaxN, Seed: 1},                            // default p: 4(n-1) half-edges
		{Algo: "luby", N: MaxN, Seed: 1, Graph: "regular", Deg: 16}, // exactly MaxHalfEdges
	}
)

func TestValidate(t *testing.T) {
	ok := RunRequest{Algo: "luby", N: 64, Seed: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if ok.Graph != "gnp" {
		t.Fatalf("Validate did not default the graph family: %q", ok.Graph)
	}
	for i, req := range invalidRequests {
		if err := req.Validate(); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, req)
		}
	}
	// Feasible shapes of the guarded families still pass.
	for i, req := range feasibleRequests {
		if err := req.Validate(); err != nil {
			t.Errorf("feasible request %d rejected: %v", i, err)
		}
	}
}

// TestExecuteInfeasibleGraphs: the review's DoS repro and friends — requests
// whose generators would panic must come back as request errors, never reach
// the generator, and never kill the caller.
func TestExecuteInfeasibleGraphs(t *testing.T) {
	for _, req := range []RunRequest{
		{Algo: "luby", Graph: "cliques", N: 3, Seed: 1},
		{Algo: "luby", Graph: "regular", N: 5, Seed: 1},
		{Algo: "en", Graph: "regular", N: 8, Deg: 9, Seed: 1},
	} {
		out, err := Execute(req, sim.ExecOptions{})
		if err == nil {
			t.Errorf("infeasible request %+v executed: %+v", req, out)
		}
	}
}

// TestRunSkipsServiceCaps: the caps are admission, not execution — Run
// executes a request whose N is over MaxN on the graph it is handed (as
// locsim does with any graph it loads), while Execute of the same request
// fails on the cap.
func TestRunSkipsServiceCaps(t *testing.T) {
	req := RunRequest{Algo: "luby", N: MaxN + 1, Seed: 1}
	if _, err := Execute(req, sim.ExecOptions{}); err == nil || !strings.Contains(err.Error(), "service cap") {
		t.Fatalf("Execute over the cap = %v, want the service-cap error", err)
	}
	out, err := Run(graph.Ring(64), req, sim.ExecOptions{})
	if err != nil || !out.Valid {
		t.Fatalf("Run over the cap = %+v, %v; want a valid outcome", out, err)
	}
}

// TestTelemetrySummary: IdleMS is the summed barrier idle
// Σ_rounds (max compute · workers − Σ compute), and String renders the
// locsim telemetry lines from the summary.
func TestTelemetrySummary(t *testing.T) {
	tel := &sim.Telemetry{
		Scheduler: sim.Parallel,
		Workers:   3,
		Rounds: []sim.RoundStats{
			{WallNS: 5e6, ComputeNS: []int64{1e6, 3e6, 2e6},
				Mode: []sim.DeliveryMode{sim.DeliverDense, sim.DeliverSparse, sim.DeliverSparse}},
			{WallNS: 6e6, ComputeNS: []int64{4e6, 4e6, 1e6},
				Mode: []sim.DeliveryMode{sim.DeliverSparse, sim.DeliverSparse, sim.DeliverSparse}},
		},
		Injected: []sim.InjectedEvent{
			{Round: 0, Kind: sim.InjectCrash, Count: 2},
			{Round: 0, Kind: sim.InjectDrop, Count: 5},
			{Round: 1, Kind: sim.InjectDrop, Count: 1},
		},
	}
	s := summarizeTelemetry(tel)
	// Round 0 idles 3·3 − 6 = 3 ms, round 1 idles 4·3 − 9 = 3 ms.
	if s.IdleMS != 6 || s.ComputeMS != 15 || s.WallMS != 11 {
		t.Fatalf("summary idle=%v compute=%v wall=%v, want 6, 15, 11", s.IdleMS, s.ComputeMS, s.WallMS)
	}
	want := "telemetry: scheduler=parallel workers=3 rounds=2 wall=11.0ms compute=15.0ms barrier-idle=6.0ms\n" +
		"telemetry: delivery modes: 0 packed / 1 dense / 5 sparse (per worker-round)\n" +
		"telemetry: injected faults: drop=6 crash=2\n"
	if got := s.String(); got != want {
		t.Errorf("String() =\n%s\nwant\n%s", got, want)
	}
	if got := (*TelemetrySummary)(nil).String(); got != "" {
		t.Errorf("nil summary renders %q, want nothing", got)
	}
}

// TestRunGuarded: a panicking run converts to a failed-run error instead of
// killing the pool worker (and with it the daemon).
func TestRunGuarded(t *testing.T) {
	out, err := runGuarded(func() (*RunOutcome, error) { panic("boom") })
	if out != nil || err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("runGuarded(panic) = %v, %v; want nil, panic error", out, err)
	}
	out, err = runGuarded(func() (*RunOutcome, error) { return &RunOutcome{Valid: true}, nil })
	if err != nil || out == nil || !out.Valid {
		t.Fatalf("runGuarded(ok) = %v, %v", out, err)
	}
}

// TestExecuteMatchesDirect pins the service's CLI-equivalence guarantee: a
// request executed through the service layer reports exactly what the same
// algorithm run directly (same graph construction, same seed) reports.
func TestExecuteMatchesDirect(t *testing.T) {
	const n, seed = 256, 7
	req := RunRequest{Algo: "luby", N: n, Seed: seed}
	out, err := Execute(req, sim.ExecOptions{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Valid {
		t.Fatalf("fault-free run not valid: %+v", out)
	}
	if out.Telemetry == nil {
		t.Fatal("forced telemetry missing from outcome")
	}

	g, err := BuildGraph("gnp", n, 0, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	in, res, err := mis.Luby(g, randomness.NewFull(seed), nil, mis.LubyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	size := 0
	for _, b := range in {
		if b {
			size++
		}
	}
	if out.Rounds != res.Rounds || out.Messages != res.Messages || out.BitsTotal != res.BitsTotal {
		t.Errorf("service outcome diverged from direct run:\nservice rounds=%d messages=%d bits=%d\ndirect  rounds=%d messages=%d bits=%d",
			out.Rounds, out.Messages, out.BitsTotal, res.Rounds, res.Messages, res.BitsTotal)
	}
	if want := fmt.Sprintf("|MIS|=%d", size); !strings.Contains(out.Summary, want) {
		t.Errorf("summary %q missing %q", out.Summary, want)
	}
}

// TestExecuteFaultedDeterministic: a faulted request is deterministic across
// repeated executions — same verdict, same accounting, same injected-fault
// telemetry — and never surfaces as a request error.
func TestExecuteFaultedDeterministic(t *testing.T) {
	req := RunRequest{
		Algo: "en", N: 192, Seed: 11,
		Adversary: AdversaryKnobs{Drop: 0.1, Crash: 1, Stall: 1},
	}
	a, err := Execute(req, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(req, sim.ExecOptions{Pool: sim.NewEnginePool()})
	if err != nil {
		t.Fatal(err)
	}
	if a.Valid != b.Valid || a.Reject != b.Reject || a.Rounds != b.Rounds ||
		a.Messages != b.Messages || a.BitsTotal != b.BitsTotal {
		t.Errorf("faulted run not deterministic:\ncold: %+v\nwarm: %+v", a, b)
	}
	if a.Telemetry == nil || len(a.Telemetry.Injected) == 0 {
		t.Errorf("faulted outcome missing injected-fault telemetry: %+v", a.Telemetry)
	}
	if !a.Valid && a.Reject == "" {
		t.Errorf("rejected outcome without a reason: %+v", a)
	}
}

func submit(t *testing.T, ts *httptest.Server, req RunRequest) string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func getView(t *testing.T, ts *httptest.Server, id string) runView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d for run %s", resp.StatusCode, id)
	}
	var v runView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitDone(t *testing.T, ts *httptest.Server, id string) runView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if v := getView(t, ts, id); v.Status == "done" || v.Status == "failed" {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s did not finish", id)
	return runView{}
}

func TestServerEndToEnd(t *testing.T) {
	srv := NewServer(Options{Jobs: 2, Backlog: 4, Pool: sim.NewEnginePool()})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := RunRequest{Algo: "luby", N: 300, Seed: 3}
	id := submit(t, ts, req)
	v := waitDone(t, ts, id)
	if v.Status != "done" || v.Outcome == nil || !v.Outcome.Valid {
		t.Fatalf("run did not complete validly: %+v", v)
	}
	if v.Outcome.Telemetry == nil {
		t.Error("daemon outcome missing telemetry summary")
	}

	// The daemon result equals a direct same-request execution.
	direct, err := Execute(req, sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Outcome.Rounds != direct.Rounds || v.Outcome.Messages != direct.Messages {
		t.Errorf("daemon outcome diverged from direct execution:\ndaemon: %+v\ndirect: %+v", v.Outcome, direct)
	}

	// Listing and health.
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Runs     []runView `json:"runs"`
		Draining bool      `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Runs) != 1 || list.Runs[0].ID != id || list.Draining {
		t.Errorf("listing wrong: %+v", list)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// TestServerStream: the SSE endpoint replays one progress event per round
// and terminates with a done event carrying the outcome — for subscribers
// arriving after completion too (the replay-log contract).
func TestServerStream(t *testing.T) {
	srv := NewServer(Options{Jobs: 1, Backlog: 1})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := submit(t, ts, RunRequest{Algo: "luby", N: 400, Seed: 5})
	v := waitDone(t, ts, id) // subscribe after completion: pure replay

	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var progress []progressView
	var done *runView
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				var p progressView
				if err := json.Unmarshal([]byte(data), &p); err != nil {
					t.Fatal(err)
				}
				progress = append(progress, p)
			case "done":
				var dv runView
				if err := json.Unmarshal([]byte(data), &dv); err != nil {
					t.Fatal(err)
				}
				done = &dv
			}
		}
		if done != nil {
			break
		}
	}
	if done == nil {
		t.Fatalf("stream ended without a done event (scan err %v)", sc.Err())
	}
	if len(progress) != v.Outcome.Rounds {
		t.Errorf("streamed %d progress events, want one per round (%d)", len(progress), v.Outcome.Rounds)
	}
	for i, p := range progress {
		if p.Round != i+1 {
			t.Fatalf("progress[%d].Round = %d, want %d", i, p.Round, i+1)
		}
	}
	if last := progress[len(progress)-1]; last.Messages != v.Outcome.Messages || last.Running != 0 {
		t.Errorf("final progress %+v does not close out the run %+v", last, v.Outcome)
	}
	if done.Outcome == nil || done.Outcome.Rounds != v.Outcome.Rounds {
		t.Errorf("done event outcome mismatch: %+v vs %+v", done.Outcome, v.Outcome)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv := NewServer(Options{Jobs: 1})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var lastBody string
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		lastBody = string(b)
		return resp.StatusCode
	}
	if code := post(`{"algo":"warp","n":64,"seed":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown algo: status %d", code)
	}
	if code := post(`{"algo":"luby","n":64,"bogus":true}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", code)
	}
	// Worker placement is not configurable, so "place" is rejected like
	// any unknown field.
	if code := post(`{"algo":"luby","n":64,"seed":1,"place":"pin"}`); code != http.StatusBadRequest {
		t.Errorf("place field: status %d", code)
	}
	// Shard re-cutting is gone too: a body that still names a re-shard
	// policy gets a 400 naming the field, not a 500.
	if code := post(`{"algo":"luby","n":64,"seed":1,"reshard":"always"}`); code != http.StatusBadRequest {
		t.Errorf("reshard field: status %d", code)
	} else {
		var e struct{ Error string }
		if err := json.Unmarshal([]byte(lastBody), &e); err != nil || !strings.Contains(e.Error, `"reshard"`) {
			t.Errorf("reshard field: error body %q does not name the field", lastBody)
		}
	}
	// Only auto, sequential and parallel name a scheduler.
	if code := post(`{"algo":"luby","n":64,"seed":1,"scheduler":"concurrent"}`); code != http.StatusBadRequest {
		t.Errorf("concurrent scheduler: status %d", code)
	}
	if code := post(`not json`); code != http.StatusBadRequest {
		t.Errorf("garbage body: status %d", code)
	}
	// The single-request-DoS repro: an infeasible graph shape must bounce
	// with 400, not panic a worker.
	if code := post(`{"algo":"luby","graph":"cliques","n":3,"seed":1}`); code != http.StatusBadRequest {
		t.Errorf("infeasible cliques request: status %d", code)
	}
	if code := post(`{"algo":"luby","graph":"regular","n":5,"seed":1}`); code != http.StatusBadRequest {
		t.Errorf("infeasible regular request: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/r999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing run: status %d", resp.StatusCode)
	}
}

// algoBody streams a {"algo":"aaaa… request body of size bytes without
// holding it in memory.
type algoBody struct{ off, size int }

func (b *algoBody) Read(p []byte) (int, error) {
	const head = `{"algo":"`
	if b.off >= b.size {
		return 0, io.EOF
	}
	n := min(len(p), b.size-b.off)
	for i := range n {
		if b.off+i < len(head) {
			p[i] = head[b.off+i]
		} else {
			p[i] = 'a'
		}
	}
	b.off += n
	return n, nil
}

// TestServerBodyCap: a request body over maxRequestBytes is answered 413
// after reading at most the cap, however large the body is.
func TestServerBodyCap(t *testing.T) {
	srv := NewServer(Options{Jobs: 1})
	defer srv.Drain()
	h := srv.Handler()
	for _, size := range []int{maxRequestBytes + 1, 256 << 20} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/runs", &algoBody{size: size}))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%d-byte body: status %d, want 413", size, rec.Code)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
			t.Errorf("%d-byte body: handler allocated %d bytes, want < 8 MiB", size, alloc)
		}
	}
}

// TestServerBusy: a full backlog bounces submissions with 503 instead of
// blocking the HTTP handler, and accepted runs still complete.
func TestServerBusy(t *testing.T) {
	srv := NewServer(Options{Jobs: 1, Backlog: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy the single worker directly through the shared pool so the
	// busy condition is deterministic (Submit blocks until a worker takes
	// the task, so the worker is provably occupied afterwards).
	gate := make(chan struct{})
	if err := srv.pool.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(RunRequest{Algo: "luby", N: 64, Seed: 1})
	var sawBusy bool
	var id string
	for i := 0; i < 3 && !sawBusy; i++ {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			sawBusy = true
		} else if resp.StatusCode == http.StatusAccepted {
			var out struct {
				ID string `json:"id"`
			}
			json.NewDecoder(resp.Body).Decode(&out)
			id = out.ID
		}
		resp.Body.Close()
	}
	if !sawBusy {
		t.Error("no 503 while the worker was occupied and the backlog empty")
	}
	// A bounced submission must not linger in the listing.
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Runs []runView `json:"runs"`
	}
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	for _, v := range list.Runs {
		if v.ID != id {
			t.Errorf("bounced run %s still listed", v.ID)
		}
	}
	close(gate)
	if n := srv.Drain(); n < 0 {
		t.Errorf("drain reported %d", n)
	}
}

// TestServerSubmitWithdrawRace: concurrent submissions while the worker is
// blocked and the backlog is tiny mix accepted and bounced runs; a bounced
// submission must withdraw exactly its own id, so the listing afterwards is
// consistent (every accepted run present, no nil entries panicking view()).
func TestServerSubmitWithdrawRace(t *testing.T) {
	srv := NewServer(Options{Jobs: 1, Backlog: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	gate := make(chan struct{})
	if err := srv.pool.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(RunRequest{Algo: "luby", N: 64, Seed: 1})
	const submitters = 16
	accepted := make(chan string, submitters)
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				var out struct {
					ID string `json:"id"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Error(err)
					return
				}
				accepted <- out.ID
			case http.StatusServiceUnavailable:
			default:
				t.Errorf("unexpected submit status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(accepted)
	want := map[string]bool{}
	for id := range accepted {
		want[id] = true
	}

	// The listing must not panic (a dangling order id would nil-deref in
	// view()) and must hold exactly the accepted runs.
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("listing after racy submissions: status %d", resp.StatusCode)
	}
	var list struct {
		Runs []runView `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != len(want) {
		t.Errorf("listing has %d runs, want the %d accepted", len(list.Runs), len(want))
	}
	for _, v := range list.Runs {
		if !want[v.ID] {
			t.Errorf("listing holds unexpected run %q", v.ID)
		}
	}
	close(gate)
	srv.Drain()
}

// TestStreamClientDisconnect: a stream subscriber that goes away while its
// run is idle (no progress appends coming) must release the handler promptly
// — the ctx.Done wakeup must not be lost against the cond.Wait loop.
func TestStreamClientDisconnect(t *testing.T) {
	srv := NewServer(Options{Jobs: 1})
	defer srv.Drain()

	// A hand-planted run stuck in "running" with no progress: the only
	// thing that can wake the stream loop is the disconnect broadcast.
	rn := newRun("r1", RunRequest{Algo: "luby", N: 64, Seed: 1})
	rn.status = "running"
	srv.mu.Lock()
	srv.runs[rn.id] = rn
	srv.order = append(srv.order, rn.id)
	srv.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/v1/runs/r1/stream", nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(httptest.NewRecorder(), req)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // let the handler park in cond.Wait
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream handler still blocked after client disconnect")
	}
}

// TestServerDrain: Drain waits for in-flight runs, counts them, and flips
// subsequent submissions to 503.
func TestServerDrain(t *testing.T) {
	srv := NewServer(Options{Jobs: 1, Backlog: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the single worker so the submitted run is still queued when the
	// drain begins, then release it once the drain is in flight.
	gate := make(chan struct{})
	if err := srv.pool.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	id := submit(t, ts, RunRequest{Algo: "luby", N: 500, Seed: 9})
	nCh := make(chan int)
	go func() { nCh <- srv.Drain() }()
	time.Sleep(20 * time.Millisecond)
	close(gate)
	if n := <-nCh; n < 1 {
		t.Errorf("drain saw %d in-flight runs, want >= 1", n)
	}
	// The drained run finished.
	v := getView(t, ts, id)
	if v.Status != "done" || v.Outcome == nil || !v.Outcome.Valid {
		t.Errorf("drained run not completed: %+v", v)
	}
	// New work bounces.
	body, _ := json.Marshal(RunRequest{Algo: "luby", N: 64, Seed: 1})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submission: status %d, want 503", resp.StatusCode)
	}
	if again := srv.Drain(); again != 0 {
		t.Errorf("second drain counted %d", again)
	}
}
