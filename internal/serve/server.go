package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"

	"randlocal/internal/experiments"
	"randlocal/internal/graph/csrfile"
	"randlocal/internal/sim"
)

// Options configures a Server.
type Options struct {
	// Jobs is the number of runs executing concurrently (<= 0 means
	// runtime.GOMAXPROCS(0)); Backlog is how many accepted runs may wait
	// beyond that before submissions bounce with 503 (negative clamps
	// to 0: accept only when a worker is idle).
	Jobs    int
	Backlog int
	// Pool is the warm engine-buffer pool runs draw from; nil allocates
	// fresh buffers per run. The server passes it per run (sim.ExecOptions).
	Pool *sim.EnginePool
	// GraphDir is the directory of prebuilt CSR graph files (cmd/csrgen)
	// that graphFile requests may name, relative paths only — the daemon's
	// file-backed sandbox. Empty rejects graphFile runs entirely.
	GraphDir string
}

// Server is the simulation service: a bounded TrialPool executing submitted
// runs over warm pooled engines, with per-run progress replay for streaming
// clients. It is the HTTP-facing twin of the experiments Runner — the same
// queue machinery, fed by POSTs instead of sweep specs.
type Server struct {
	pool     *experiments.TrialPool
	engines  *sim.EnginePool
	graphDir string

	mu       sync.Mutex
	runs     map[string]*run
	order    []string // submission order, for listing
	seq      int
	draining bool
}

// run is one submitted simulation's lifecycle: queued → running → done (an
// outcome, valid or checker-rejected) or failed (a request/engine error).
// The progress slice is an append-only replay log: stream subscribers — even
// ones arriving after completion — see every round event in order, then the
// terminal event. cond broadcasts on every append and on completion.
type run struct {
	id  string
	req RunRequest
	// graphPath is the sandbox-resolved location of req.GraphFile; the
	// stored request keeps the client's relative path for the status API.
	graphPath string

	mu       sync.Mutex
	cond     *sync.Cond
	status   string
	progress []sim.Progress
	outcome  *RunOutcome
	err      string
	finished bool
}

func newRun(id string, req RunRequest) *run {
	r := &run{id: id, req: req, status: "queued"}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// observe is the sim.Progress hook; it runs on the engine's coordinator
// goroutine at each round boundary.
func (r *run) observe(p sim.Progress) {
	r.mu.Lock()
	r.progress = append(r.progress, p)
	r.cond.Broadcast()
	r.mu.Unlock()
}

func (r *run) finish(out *RunOutcome, err error) {
	r.mu.Lock()
	if err != nil {
		r.status, r.err = "failed", err.Error()
	} else {
		r.status, r.outcome = "done", out
	}
	r.finished = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// progressView is the wire form of one sim.Progress update.
type progressView struct {
	Round    int   `json:"round"`
	Active   int   `json:"active"`
	Running  int   `json:"running"`
	Messages int64 `json:"messages"`
}

func toProgressView(p sim.Progress) progressView {
	return progressView{Round: p.Round, Active: p.Active, Running: p.Running, Messages: p.Messages}
}

// runView is the status-API projection of a run.
type runView struct {
	ID       string        `json:"id"`
	Status   string        `json:"status"`
	Request  RunRequest    `json:"request"`
	Rounds   int           `json:"rounds"` // rounds completed so far (or total)
	Progress *progressView `json:"progress,omitempty"`
	Outcome  *RunOutcome   `json:"outcome,omitempty"`
	Error    string        `json:"error,omitempty"`
}

func (r *run) view() runView {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := runView{ID: r.id, Status: r.status, Request: r.req, Outcome: r.outcome, Error: r.err}
	if n := len(r.progress); n > 0 {
		p := toProgressView(r.progress[n-1])
		v.Progress = &p
		v.Rounds = p.Round
	}
	if r.outcome != nil {
		v.Rounds = r.outcome.Rounds
	}
	return v
}

// NewServer starts the service's worker pool. Callers must Drain before
// discarding the server.
func NewServer(opt Options) *Server {
	return &Server{
		pool:     experiments.NewTrialPool(opt.Jobs, opt.Backlog),
		engines:  opt.Pool,
		graphDir: opt.GraphDir,
		runs:     map[string]*run{},
	}
}

// Drain stops accepting new runs, waits for every accepted run to finish,
// and reports how many were still in flight when the drain began. Safe to
// call more than once; later calls return 0 after the first completes.
func (s *Server) Drain() int {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	inflight := 0
	if !already {
		for _, r := range s.runs {
			r.mu.Lock()
			if !r.finished {
				inflight++
			}
			r.mu.Unlock()
		}
	}
	s.mu.Unlock()
	s.pool.Close() // blocks until accepted runs complete; idempotent
	return inflight
}

// Handler returns the service's HTTP API:
//
//	POST /v1/runs         submit a RunRequest → 202 {id} | 400 | 413 over 64 KiB | 503 when full/draining
//	GET  /v1/runs         list all runs newest-last
//	GET  /v1/runs/{id}    one run's status, progress and outcome
//	GET  /v1/runs/{id}/stream  SSE: every round as an event, then the result
//	GET  /healthz         liveness + drain state
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxRequestBytes caps a submitted request body. A RunRequest is under
// 1 KiB; without a cap the decoder buffers a body of any size.
const maxRequestBytes = 64 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad request body: %w", err))
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	graphPath := ""
	if req.GraphFile != "" {
		var err error
		if graphPath, err = s.resolveGraphFile(&req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
		return
	}
	s.seq++
	rn := newRun(fmt.Sprintf("r%d", s.seq), req)
	rn.graphPath = graphPath
	s.runs[rn.id] = rn
	s.order = append(s.order, rn.id)
	s.mu.Unlock()

	if err := s.pool.TrySubmit(func() { s.execute(rn) }); err != nil {
		// Busy or closed: the run never started; withdraw it so the
		// listing doesn't show a permanently-queued ghost. Remove the id
		// by value — a concurrent submit may have appended after ours, so
		// truncating the tail could drop someone else's run.
		s.mu.Lock()
		delete(s.runs, rn.id)
		for i := len(s.order) - 1; i >= 0; i-- {
			if s.order[i] == rn.id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": rn.id, "status": "queued"})
}

// execute runs one accepted run on a pool worker: per-run ExecOptions carry
// the warm engine pool, force telemetry (the status API always has the
// summary), and wire the round hook into the run's replay log.
func (s *Server) execute(rn *run) {
	rn.mu.Lock()
	rn.status = "running"
	rn.mu.Unlock()
	req := rn.req
	if rn.graphPath != "" {
		req.GraphFile = rn.graphPath
	}
	out, err := runGuarded(func() (*RunOutcome, error) {
		return Execute(req, sim.ExecOptions{
			Telemetry: true,
			Pool:      s.engines,
			Progress:  rn.observe,
		})
	})
	rn.finish(out, err)
}

// resolveGraphFile maps a submitted graphFile into the daemon's -graphdir
// sandbox and pre-validates its header, so a bad path or oversized graph is
// a 400 at submit time rather than a failed run later. It fills the
// request's N (and worker clamp) from the header.
func (s *Server) resolveGraphFile(req *RunRequest) (string, error) {
	if s.graphDir == "" {
		return "", fmt.Errorf("this server does not accept graphFile runs (start locsimd with -graphdir)")
	}
	clean := filepath.Clean(req.GraphFile)
	if filepath.IsAbs(clean) || clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("graphFile %q escapes the graph directory", req.GraphFile)
	}
	path := filepath.Join(s.graphDir, clean)
	hdr, err := csrfile.ReadHeader(path)
	if err != nil {
		return "", fmt.Errorf("graphFile %q: %w", req.GraphFile, err)
	}
	if hdr.N > MaxN {
		return "", fmt.Errorf("graph file n=%d exceeds the service cap %d", hdr.N, MaxN)
	}
	if req.N != 0 && req.N != hdr.N {
		return "", fmt.Errorf("request n=%d does not match the graph file's n=%d", req.N, hdr.N)
	}
	req.N = hdr.N
	if req.Workers > req.N {
		req.Workers = req.N
	}
	return path, nil
}

// runGuarded invokes fn, converting a panic into a failed-run error. Validate
// rejects known-infeasible requests up front; this backstop keeps anything
// that still slips through from killing the pool worker — one request must
// never take down the daemon.
func runGuarded(fn func() (*RunOutcome, error)) (out *RunOutcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("run panicked: %v", p)
		}
	}()
	return fn()
}

func (s *Server) lookup(id string) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]runView, 0, len(s.order))
	runs := make([]*run, 0, len(s.order))
	for _, id := range s.order {
		runs = append(runs, s.runs[id])
	}
	draining := s.draining
	s.mu.Unlock()
	for _, rn := range runs {
		views = append(views, rn.view())
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": views, "draining": draining})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rn := s.lookup(r.PathValue("id"))
	if rn == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no run %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, rn.view())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	n := len(s.runs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "runs": n})
}

// handleStream serves one run as Server-Sent Events: a `progress` event per
// completed round (replayed from the start, so late subscribers see the full
// trajectory) and a terminal `done` event carrying the same JSON as the
// status endpoint. The stream also ends when the client goes away.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	rn := s.lookup(r.PathValue("id"))
	if rn == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no run %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Wake the wait loop when the client disconnects, so the handler does
	// not linger until the run finishes.
	ctx := r.Context()
	go func() {
		<-ctx.Done()
		// Hold rn.mu so the Broadcast is ordered against the wait loop's
		// ctx.Err() check; an unlocked Broadcast can land between that
		// check and cond.Wait and be lost.
		rn.mu.Lock()
		rn.cond.Broadcast()
		rn.mu.Unlock()
	}()

	emit := func(event string, v any) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	sent := 0
	for {
		rn.mu.Lock()
		for sent == len(rn.progress) && !rn.finished && ctx.Err() == nil {
			rn.cond.Wait()
		}
		batch := rn.progress[sent:len(rn.progress):len(rn.progress)]
		sent = len(rn.progress)
		finished := rn.finished
		rn.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		for _, p := range batch {
			if !emit("progress", toProgressView(p)) {
				return
			}
		}
		if finished {
			emit("done", rn.view())
			return
		}
	}
}
