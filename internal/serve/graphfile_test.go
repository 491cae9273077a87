package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/sim"
)

// writeGraphFile generates the request-equivalent graph in RAM and writes it
// in the on-disk CSR format, returning the file path.
func writeGraphFile(t *testing.T, dir, name, kind string, n int, seed uint64) string {
	t.Helper()
	g, err := BuildGraph(kind, n, 0, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := graph.WriteCSRFile(g, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertOutcomeEqual compares everything about two outcomes of one request
// except what the host's clock decides — the wall-clock telemetry — which is
// all that may differ between a file-backed and a generated run of it, on
// every scheduler.
func assertOutcomeEqual(t *testing.T, label string, got, want *RunOutcome) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil outcome (got=%v want=%v)", label, got, want)
	}
	if got.Valid != want.Valid || got.Reject != want.Reject || got.Summary != want.Summary {
		t.Errorf("%s: verdict diverged:\n got: valid=%t reject=%q %q\nwant: valid=%t reject=%q %q",
			label, got.Valid, got.Reject, got.Summary, want.Valid, want.Reject, want.Summary)
	}
	if got.Rounds != want.Rounds || got.Messages != want.Messages ||
		got.BitsTotal != want.BitsTotal || got.MaxMessageBits != want.MaxMessageBits {
		t.Errorf("%s: accounting diverged:\n got: rounds=%d messages=%d bits=%d maxMsg=%d\nwant: rounds=%d messages=%d bits=%d maxMsg=%d",
			label, got.Rounds, got.Messages, got.BitsTotal, got.MaxMessageBits,
			want.Rounds, want.Messages, want.BitsTotal, want.MaxMessageBits)
	}
	if !reflect.DeepEqual(got.ActivePerRound, want.ActivePerRound) {
		t.Errorf("%s: activePerRound diverged", label)
	}
	gt, wt := got.Telemetry, want.Telemetry
	if (gt == nil) != (wt == nil) {
		t.Fatalf("%s: telemetry presence diverged: got=%v want=%v", label, gt, wt)
	}
	if gt == nil {
		return
	}
	if gt.Scheduler != wt.Scheduler || gt.Workers != wt.Workers || gt.Rounds != wt.Rounds ||
		!reflect.DeepEqual(gt.Injected, wt.Injected) || !reflect.DeepEqual(gt.Modes, wt.Modes) {
		t.Errorf("%s: telemetry diverged (beyond wall clock):\n got: %+v\nwant: %+v", label, gt, wt)
	}
}

// TestValidateGraphFile covers the graphFile branch of request validation:
// the file path replaces the family spec, so family parameters must be unset
// and n is optional.
func TestValidateGraphFile(t *testing.T) {
	ok := []RunRequest{
		{Algo: "luby", GraphFile: "g.csr", Seed: 1},         // n filled from the header
		{Algo: "en", GraphFile: "g.csr", N: 512, Seed: 1},   // n asserted against the header
		{Algo: "coloring", GraphFile: "sub/g.csr", Seed: 1}, // subdirectories are fine
	}
	for i, req := range ok {
		if err := req.Validate(); err != nil {
			t.Errorf("valid graphFile request %d rejected: %v", i, err)
		}
	}
	bad := []RunRequest{
		{Algo: "luby", GraphFile: "g.csr", Graph: "gnp"},   // family and file together
		{Algo: "luby", GraphFile: "g.csr", P: 0.5},         // p is a family knob
		{Algo: "luby", GraphFile: "g.csr", Deg: 3},         // deg is a family knob
		{Algo: "luby", GraphFile: "g.csr", N: -1},          // negative n
		{Algo: "luby", GraphFile: "g.csr", N: MaxN + 1},    // over cap
		{Algo: "bogus", GraphFile: "g.csr"},                // algo still validated
		{Algo: "luby", GraphFile: "g.csr", Scheduler: "x"}, // engine knobs still validated
		{Algo: "luby", GraphFile: "g.csr", Adversary: AdversaryKnobs{Drop: 2}},
	}
	for i, req := range bad {
		if err := req.Validate(); err == nil {
			t.Errorf("bad graphFile request %d accepted: %+v", i, req)
		}
	}
}

// TestExecuteGraphFileMatchesGenerated is the serve-layer half of the
// out-of-core equivalence guarantee: a run on a csrgen-equivalent file
// reports exactly what the generated run of the same request reports —
// clean and faulted, sequential and parallel.
func TestExecuteGraphFileMatchesGenerated(t *testing.T) {
	const n, seed = 600, 3
	path := writeGraphFile(t, t.TempDir(), "g.csr", "gnp", n, seed)

	cases := []struct {
		name string
		req  RunRequest
	}{
		{"luby-sequential", RunRequest{Algo: "luby", N: n, Seed: seed}},
		{"en-parallel", RunRequest{Algo: "en", N: n, Seed: seed, Scheduler: "parallel", Workers: 3}},
		{"coloring-sequential", RunRequest{Algo: "coloring", N: n, Seed: seed, Scheduler: "sequential"}},
		{"lubybit-unpacked", RunRequest{Algo: "lubybit", N: n, Seed: seed, Unpacked: true}},
		{"luby-faulted", RunRequest{Algo: "luby", N: n, Seed: seed,
			Adversary: AdversaryKnobs{Drop: 0.1, Crash: 1}}},
		{"en-faulted-parallel", RunRequest{Algo: "en", N: n, Seed: seed,
			Scheduler: "parallel", Workers: 2,
			Adversary: AdversaryKnobs{Drop: 0.15, Stall: 1}}},
		{"n-filled-from-header", RunRequest{Algo: "luby", Seed: seed}}, // N left 0
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gen := tc.req
			gen.N = n // the generated twin always needs the explicit size
			want, err := Execute(gen, sim.ExecOptions{Telemetry: true})
			if err != nil {
				t.Fatal(err)
			}
			fileReq := tc.req
			fileReq.GraphFile = path
			got, err := Execute(fileReq, sim.ExecOptions{Telemetry: true})
			if err != nil {
				t.Fatal(err)
			}
			assertOutcomeEqual(t, tc.name, got, want)
		})
	}
}

// TestExecuteGraphFileErrors: file-level failures surface as request errors.
func TestExecuteGraphFileErrors(t *testing.T) {
	dir := t.TempDir()
	path := writeGraphFile(t, dir, "g.csr", "ring", 128, 1)

	if _, err := Execute(RunRequest{Algo: "luby", GraphFile: filepath.Join(dir, "missing.csr"), Seed: 1}, sim.ExecOptions{}); err == nil {
		t.Error("missing graph file executed")
	}
	_, err := Execute(RunRequest{Algo: "luby", GraphFile: path, N: 64, Seed: 1}, sim.ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("n mismatch not rejected: %v", err)
	}
	// A truncated file must fail to open, not run on garbage.
	raw, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	trunc := filepath.Join(dir, "trunc.csr")
	if werr := os.WriteFile(trunc, raw[:len(raw)-4], 0o644); werr != nil {
		t.Fatal(werr)
	}
	if _, err := Execute(RunRequest{Algo: "luby", GraphFile: trunc, Seed: 1}, sim.ExecOptions{}); err == nil {
		t.Error("truncated graph file executed")
	}
}

// writeOversizedHeader plants a header-only CSR file whose n exceeds the
// service cap (half-edge count 0, sparse-truncated to the implied size), to
// prove the daemon rejects it from the header alone without mapping it.
func writeOversizedHeader(t *testing.T, path string) {
	t.Helper()
	hdr := make([]byte, 64)
	copy(hdr, "CSRFILE1")
	binary.LittleEndian.PutUint32(hdr[8:12], 1)               // version
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(MaxN+1)) // n over the cap
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(hdr); err != nil {
		t.Fatal(err)
	}
	// The off array of n+1 zero int64s, as a sparse hole.
	if err := f.Truncate(64 + 8*int64(MaxN+2)); err != nil {
		t.Fatal(err)
	}
}

// TestServerGraphFile: the daemon's -graphdir sandbox end to end — a relative
// path inside the directory runs (matching the direct execution of the same
// file), and every escape or misconfiguration bounces with 400.
func TestServerGraphFile(t *testing.T) {
	dir := t.TempDir()
	const n, seed = 500, 9
	writeGraphFile(t, dir, "g.csr", "gnp", n, seed)
	writeOversizedHeader(t, filepath.Join(dir, "huge.csr"))

	srv := NewServer(Options{Jobs: 1, Backlog: 2, GraphDir: dir})
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := RunRequest{Algo: "luby", GraphFile: "g.csr", Seed: seed}
	id := submit(t, ts, req)
	v := waitDone(t, ts, id)
	if v.Status != "done" || v.Outcome == nil || !v.Outcome.Valid {
		t.Fatalf("file-backed run did not complete validly: %+v", v)
	}
	// The stored request keeps the client's relative path, not the resolved one.
	if v.Request.GraphFile != "g.csr" {
		t.Errorf("status API leaked the resolved path: %q", v.Request.GraphFile)
	}
	if v.Request.N != n {
		t.Errorf("accepted request n=%d, want %d from the header", v.Request.N, n)
	}
	// Daemon outcome equals the generated run of the same parameters.
	direct, err := Execute(RunRequest{Algo: "luby", N: n, Seed: seed}, sim.ExecOptions{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	assertOutcomeEqual(t, "daemon-vs-generated", v.Outcome, direct)

	post := func(req RunRequest) (int, string) {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	rejections := []struct {
		name string
		req  RunRequest
		want string // substring of the 400 body
	}{
		{"absolute-path", RunRequest{Algo: "luby", GraphFile: filepath.Join(dir, "g.csr"), Seed: 1}, "escapes"},
		{"dotdot-escape", RunRequest{Algo: "luby", GraphFile: "../g.csr", Seed: 1}, "escapes"},
		{"nested-dotdot", RunRequest{Algo: "luby", GraphFile: "sub/../../g.csr", Seed: 1}, "escapes"},
		{"missing-file", RunRequest{Algo: "luby", GraphFile: "nope.csr", Seed: 1}, ""},
		{"n-mismatch", RunRequest{Algo: "luby", GraphFile: "g.csr", N: 64, Seed: 1}, "does not match"},
		{"over-cap", RunRequest{Algo: "luby", GraphFile: "huge.csr", Seed: 1}, "cap"},
	}
	for _, tc := range rejections {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(tc.req)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %q)", code, body)
			}
			if tc.want != "" && !strings.Contains(body, tc.want) {
				t.Errorf("400 body %q missing %q", body, tc.want)
			}
		})
	}

	// A daemon without -graphdir refuses file-backed runs outright.
	bare := NewServer(Options{Jobs: 1})
	defer bare.Drain()
	bts := httptest.NewServer(bare.Handler())
	defer bts.Close()
	body, _ := json.Marshal(RunRequest{Algo: "luby", GraphFile: "g.csr", Seed: 1})
	resp, err := http.Post(bts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "graphdir") {
		t.Errorf("no-graphdir submission: status %d body %q, want 400 naming -graphdir", resp.StatusCode, buf.String())
	}
}
