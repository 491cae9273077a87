package serve

import (
	"encoding/json"
	"testing"
)

// fuzzMaxN and fuzzMaxHalfEdges bound the graphs FuzzRunRequest builds, so
// every input builds in milliseconds and small memory; validation itself
// runs on every input.
const (
	fuzzMaxN         = 4096
	fuzzMaxHalfEdges = 1 << 16
)

// FuzzRunRequest feeds arbitrary JSON through the daemon's submission path:
// decoding, Validate, and — for a validated generated-graph request —
// BuildGraph, which must then succeed without panicking and build a graph of
// at most the requested size.
func FuzzRunRequest(f *testing.F) {
	seeds := append(append([]RunRequest{}, invalidRequests...), feasibleRequests...)
	for _, tc := range rejectedSpecs {
		seeds = append(seeds, RunRequest{Algo: "luby", Graph: tc.kind, N: tc.n, P: tc.p, Deg: tc.deg, Seed: 1})
	}
	seeds = append(seeds,
		RunRequest{Algo: "en", Graph: "grid", N: 1000, Seed: 3, Scheduler: "parallel", Workers: 2},
		RunRequest{Algo: "lubybit", Graph: "tree", N: 257, Seed: 4, Unpacked: true},
		RunRequest{Algo: "coloring", Graph: "gnp", N: 200, P: 0.05, Seed: 5, Adversary: AdversaryKnobs{Drop: 0.1, Crash: 1}},
		RunRequest{Algo: "luby", GraphFile: "g.csr", Seed: 6},
	)
	for _, req := range seeds {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req RunRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		if req.Validate() != nil || req.GraphFile != "" || req.N > fuzzMaxN {
			return
		}
		if expectedHalfEdges(req.Graph, req.N, req.P, req.Deg) > fuzzMaxHalfEdges {
			return
		}
		g, err := BuildGraph(req.Graph, req.N, req.P, req.Deg, req.Seed)
		if err != nil {
			t.Fatalf("validated request %+v: BuildGraph: %v", req, err)
		}
		if g.N() == 0 || g.N() > req.N {
			t.Fatalf("validated request %+v built %v", req, g)
		}
	})
}
