// Command locsimd is the long-running simulation service: an HTTP/JSON
// daemon accepting locsim-equivalent run requests, executing them on a
// bounded worker pool over warm pooled engines, and streaming round-by-round
// progress to clients. SIGTERM/SIGINT drain gracefully: accepted runs finish,
// new submissions bounce with 503, then the listener shuts down.
//
// API (see internal/serve):
//
//	POST /v1/runs              submit a run        → 202 {"id":"r1"}
//	GET  /v1/runs              list runs
//	GET  /v1/runs/{id}         status + outcome
//	GET  /v1/runs/{id}/stream  SSE progress, then the result
//	GET  /healthz              liveness + drain state
//
// Example:
//
//	locsimd -addr 127.0.0.1:8080 &
//	curl -d '{"algo":"luby","n":4096,"seed":1}' localhost:8080/v1/runs
//	curl localhost:8080/v1/runs/r1
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"randlocal/internal/serve"
	"randlocal/internal/sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	jobs := flag.Int("jobs", 0, "concurrent runs (0 = GOMAXPROCS)")
	backlog := flag.Int("backlog", 16, "accepted runs that may queue beyond the workers before 503")
	pool := flag.Bool("pool", true, "keep engine buffers warm across runs (sim.EnginePool)")
	graphDir := flag.String("graphdir", "", "directory of prebuilt CSR graph files (cmd/csrgen) that graphFile requests may name; empty rejects file-backed runs")
	flag.Parse()
	log.SetFlags(0)

	if err := run(*addr, *jobs, *backlog, *pool, *graphDir); err != nil {
		log.Fatalf("locsimd: %v", err)
	}
}

func run(addr string, jobs, backlog int, pool bool, graphDir string) error {
	var engines *sim.EnginePool
	if pool {
		engines = sim.NewEnginePool()
	}
	srv := serve.NewServer(serve.Options{Jobs: jobs, Backlog: backlog, Pool: engines, GraphDir: graphDir})
	hs := &http.Server{Handler: srv.Handler()}

	// Bind before announcing, so "listening on" always names a live port
	// (the smoke script and ephemeral-port users parse this line).
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("locsimd: listening on %s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting on the drain

	log.Printf("locsimd: shutdown signal received, draining")
	drained := srv.Drain()
	log.Printf("locsimd: drained %d in-flight run(s)", drained)
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("locsimd: shutdown complete")
	return nil
}
