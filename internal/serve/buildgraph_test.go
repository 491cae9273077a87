package serve

import (
	"strings"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
)

// rejectedSpecs are family parameters ValidateGraphSpec must refuse, each
// with a substring of its error. FuzzRunRequest seeds from them too.
var rejectedSpecs = []struct {
	name string
	kind string
	n    int
	p    float64
	deg  int
	want string // substring of the error
}{
	{"unknown-family", "torus", 64, 0, 0, "unknown graph family"},
	{"zero-n", "gnp", 0, 0, 0, "n must be positive"},
	{"negative-n", "ring", -1, 0, 0, "n must be positive"},
	{"p-too-big", "gnp", 64, 1.5, 0, "outside [0, 1]"},
	{"p-negative", "gnp", 64, -0.5, 0, "outside [0, 1]"},
	{"negative-deg", "regular", 64, 0, -2, "deg must be nonnegative"},
	{"cliques-too-small", "cliques", 3, 0, 0, "needs n >= 4"},
	{"regular-deg-ge-n", "regular", 4, 0, 4, "needs deg < n"},
	{"regular-odd-product", "regular", 5, 0, 3, "n*deg even"},
	{"regular-default-odd", "regular", 5, 0, 0, "n*deg even"},
	{"regular-too-dense", "regular", 16, 0, 15, "deg <= n/2"},
	{"regular-default-too-dense", "regular", 4, 0, 0, "deg <= n/2"},
}

// TestBuildGraphFamilies is the family coverage table: every RunRequest
// graph family builds a valid graph with its advertised shape, every
// validation error path rejects with a recognizable message, and BuildGraph
// itself refuses unknown families — previously only some families were
// exercised, and only through HTTP tests.
func TestBuildGraphFamilies(t *testing.T) {
	build := []struct {
		name  string
		kind  string
		n     int
		p     float64
		deg   int
		check func(t *testing.T, g *graph.Graph)
	}{
		{"gnp-default-p", "gnp", 300, 0, 0, func(t *testing.T, g *graph.Graph) {
			if _, k := graph.Components(g); k != 1 {
				t.Errorf("gnp graph not connected: %d components", k)
			}
		}},
		{"gnp-default-p-tiny", "gnp", 3, 0, 0, func(t *testing.T, g *graph.Graph) {
			if g.M() != 3 { // 4/n clamps to p = 1
				t.Errorf("gnp n=3 with default p: m=%d, want the triangle", g.M())
			}
		}},
		{"gnp-explicit-p", "gnp", 200, 0.05, 0, func(t *testing.T, g *graph.Graph) {
			want := graph.GNPConnected(200, 0.05, prng.New(7))
			if !g.Equal(want) {
				t.Error("gnp with explicit p does not match GNPConnected")
			}
		}},
		{"ring", "ring", 100, 0, 0, func(t *testing.T, g *graph.Graph) {
			if g.M() != 100 || g.MaxDegree() != 2 {
				t.Errorf("ring: m=%d Δ=%d, want 100 and 2", g.M(), g.MaxDegree())
			}
		}},
		{"grid-rounds-to-square", "grid", 1000, 0, 0, func(t *testing.T, g *graph.Graph) {
			if g.N() != 31*31 { // largest s with s^2 <= 1000
				t.Errorf("grid n=%d, want %d", g.N(), 31*31)
			}
		}},
		{"tree", "tree", 257, 0, 0, func(t *testing.T, g *graph.Graph) {
			if g.M() != 256 {
				t.Errorf("tree m=%d, want n-1=256", g.M())
			}
			if _, k := graph.Components(g); k != 1 {
				t.Errorf("tree not connected: %d components", k)
			}
		}},
		{"cliques", "cliques", 64, 0, 0, func(t *testing.T, g *graph.Graph) {
			if g.N() != 64 || g.MaxDegree() != 4 { // clique of 4 plus one ring link
				t.Errorf("cliques: n=%d Δ=%d, want 64 and 4", g.N(), g.MaxDegree())
			}
		}},
		{"regular-default-deg", "regular", 64, 0, 0, func(t *testing.T, g *graph.Graph) {
			if g.MinDegree() != 3 || g.MaxDegree() != 3 {
				t.Errorf("regular defaults: degrees [%d, %d], want 3-regular", g.MinDegree(), g.MaxDegree())
			}
		}},
		{"regular-explicit-deg", "regular", 64, 0, 6, func(t *testing.T, g *graph.Graph) {
			if g.MinDegree() != 6 || g.MaxDegree() != 6 {
				t.Errorf("regular deg=6: degrees [%d, %d]", g.MinDegree(), g.MaxDegree())
			}
		}},
	}
	for _, tc := range build {
		t.Run(tc.name, func(t *testing.T) {
			g, err := BuildGraph(tc.kind, tc.n, tc.p, tc.deg, 7)
			if err != nil {
				t.Fatalf("BuildGraph: %v", err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("invalid graph: %v", err)
			}
			// Same parameters, same seed → the same instance (the
			// determinism the daemon/CLI equivalence rests on).
			again, err := BuildGraph(tc.kind, tc.n, tc.p, tc.deg, 7)
			if err != nil {
				t.Fatalf("BuildGraph (again): %v", err)
			}
			if !g.Equal(again) {
				t.Error("BuildGraph is not deterministic for a fixed seed")
			}
			tc.check(t, g)
		})
	}

	if _, err := BuildGraph("torus", 64, 0, 0, 1); err == nil {
		t.Error("BuildGraph accepted an unknown family")
	}

	for _, tc := range rejectedSpecs {
		t.Run("reject-"+tc.name, func(t *testing.T) {
			err := ValidateGraphSpec(tc.kind, tc.n, tc.p, tc.deg)
			if err == nil {
				t.Fatalf("ValidateGraphSpec(%q, %d, %v, %d) accepted", tc.kind, tc.n, tc.p, tc.deg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// BuildGraph checks the shape itself, so front ends that skip
			// Validate (locsim) get the error instead of a generator panic.
			if _, err := BuildGraph(tc.kind, tc.n, tc.p, tc.deg, 1); err == nil {
				t.Fatalf("BuildGraph(%q, %d, %v, %d) accepted", tc.kind, tc.n, tc.p, tc.deg)
			}
			// The same shape through a full request must reject too.
			req := RunRequest{Algo: "luby", Graph: tc.kind, N: tc.n, P: tc.p, Deg: tc.deg, Seed: 1}
			if err := req.Validate(); err == nil {
				t.Fatalf("RunRequest.Validate accepted the %s shape", tc.name)
			}
		})
	}
}
