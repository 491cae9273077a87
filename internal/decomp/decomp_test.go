package decomp

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"randlocal/internal/graph"
	"randlocal/internal/prng"
	"randlocal/internal/randomness"
	"randlocal/internal/sim"
)

// The reference below is the cluster scan the labelled piece walk
// replaced: a map from label to members, one induced subgraph per cluster
// and one BFS per member.

func refMembers(labels []int) map[int][]int {
	m := map[int][]int{}
	for v, c := range labels {
		m[c] = append(m[c], v)
	}
	return m
}

func refDiameter(g *graph.Graph) int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		diam = max(diam, g.Eccentricity(v))
	}
	return diam
}

func refMaxClusterDiameter(d *Decomposition, g *graph.Graph) int {
	diam := 0
	for _, members := range refMembers(d.Cluster) {
		sub, _ := graph.InducedSubgraph(g, members)
		diam = max(diam, refDiameter(sub))
	}
	return diam
}

func refStats(d *Decomposition, g *graph.Graph) Stats {
	colors, clusters := refMembers(d.Color), refMembers(d.Cluster)
	size := 0
	for _, members := range clusters {
		size = max(size, len(members))
	}
	return Stats{Colors: len(colors), Clusters: len(clusters), MaxDiameter: refMaxClusterDiameter(d, g), MaxSize: size}
}

// refValidate is Validate as it was before the piece walk. It checks the
// clusters in map order, so with more than one faulty cluster its message
// may name any of them.
func refValidate(d *Decomposition, g *graph.Graph, maxColors, maxDiam int) error {
	n := g.N()
	if len(d.Cluster) != n || len(d.Color) != n {
		return fmt.Errorf("decomp: label arrays sized %d/%d for %d nodes", len(d.Cluster), len(d.Color), n)
	}
	for v := 0; v < n; v++ {
		if d.Cluster[v] < 0 {
			return fmt.Errorf("decomp: node %d is unclustered", v)
		}
	}
	clusterColor := map[int]int{}
	for v := 0; v < n; v++ {
		c := d.Cluster[v]
		if col, ok := clusterColor[c]; ok {
			if col != d.Color[v] {
				return fmt.Errorf("decomp: cluster %d carries colors %d and %d", c, col, d.Color[v])
			}
		} else {
			clusterColor[c] = d.Color[v]
		}
	}
	var adjErr error
	g.Edges(func(u, v int) {
		if adjErr == nil && d.Cluster[u] != d.Cluster[v] && d.Color[u] == d.Color[v] {
			adjErr = fmt.Errorf("decomp: adjacent clusters %d and %d share color %d (edge {%d,%d})",
				d.Cluster[u], d.Cluster[v], d.Color[u], u, v)
		}
	})
	if adjErr != nil {
		return adjErr
	}
	if maxColors > 0 {
		if got := len(refMembers(d.Color)); got > maxColors {
			return fmt.Errorf("decomp: %d colors exceed the bound %d", got, maxColors)
		}
	}
	for c, members := range refMembers(d.Cluster) {
		sub, _ := graph.InducedSubgraph(g, members)
		if !graph.IsConnected(sub) {
			return fmt.Errorf("decomp: cluster %d induces a disconnected subgraph", c)
		}
		if maxDiam > 0 {
			if diam := refDiameter(sub); diam > maxDiam {
				return fmt.Errorf("decomp: cluster %d has strong diameter %d > bound %d", c, diam, maxDiam)
			}
		}
	}
	return nil
}

type decompCase struct {
	name string
	g    *graph.Graph
	d    *Decomposition
}

// decompCases runs EN (with sequential and with sparse random IDs, so both
// the counting and the sorting label numbering are used), MPX (each
// cluster its own color) and the low-randomness construction.
func decompCases(t *testing.T) []decompCase {
	t.Helper()
	var cases []decompCase
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp600", graph.GNPConnected(600, 4.0/600, prng.New(1))},
		{"regular500", graph.RandomRegular(500, 4, prng.New(2))},
		{"grid20", graph.Grid(20, 20)},
		{"tree400", graph.RandomTree(400, prng.New(3))},
	}
	for _, gc := range graphs {
		n := gc.g.N()
		for _, ids := range []struct {
			name string
			ids  []uint64
		}{{"seqIDs", nil}, {"randomIDs", sim.RandomIDs(n, n, sim.NewSimulationKey(uint64(n)))}} {
			d, _, err := ElkinNeiman(gc.g, randomness.NewFull(uint64(n)+7), ids.ids, ENConfig{})
			if err != nil {
				t.Fatalf("%s EN: %v", gc.name, err)
			}
			cases = append(cases, decompCase{gc.name + "/en/" + ids.name, gc.g, d})
		}
		mpx, err := MPXPartition(gc.g, randomness.NewFull(uint64(n)+9), nil, sim.ExecOptions{})
		if err != nil {
			t.Fatalf("%s MPX: %v", gc.name, err)
		}
		if want := refMaxClusterDiameter(&Decomposition{Cluster: mpx.Cluster}, gc.g); mpx.MaxClusterDiameter != want {
			t.Errorf("%s MPX: MaxClusterDiameter %d, reference %d", gc.name, mpx.MaxClusterDiameter, want)
		}
		cases = append(cases, decompCase{gc.name + "/mpx", gc.g, &Decomposition{Cluster: mpx.Cluster, Color: mpx.Cluster}})
	}
	for _, lc := range []struct {
		name string
		g    *graph.Graph
		cfg  LowRandConfig
	}{
		{"ring600", graph.Ring(600), LowRandConfig{H: 2, BitsPerCluster: 64, RulingAlphaFactor: 4}},
		{"ringOfCliques", graph.RingOfCliques(100, 4), LowRandConfig{H: 1, BitsPerCluster: 24, RulingAlphaFactor: 2}},
	} {
		src, holders := lowRandSetup(t, lc.g, lc.cfg.H, 5)
		res, err := LowRand(lc.g, src, holders, lc.cfg)
		if err != nil {
			t.Fatalf("%s LowRand: %v", lc.name, err)
		}
		cases = append(cases, decompCase{lc.name + "/lowrand", lc.g, res.Decomposition})
	}
	return cases
}

func TestClusterScanMatchesInducedSubgraphs(t *testing.T) {
	for _, c := range decompCases(t) {
		diam := refMaxClusterDiameter(c.d, c.g)
		if got := c.d.MaxClusterDiameter(c.g); got != diam {
			t.Errorf("%s: MaxClusterDiameter %d, reference %d", c.name, got, diam)
		}
		if got, want := c.d.StatsOf(c.g), refStats(c.d, c.g); got != want {
			t.Errorf("%s: StatsOf %+v, reference %+v", c.name, got, want)
		}
		for _, bound := range []int{0, diam, diam + 1, max(diam-1, 1)} {
			got, want := c.d.Validate(c.g, 0, bound), refValidate(c.d, c.g, 0, bound)
			if (got == nil) != (want == nil) {
				t.Errorf("%s: Validate(maxDiam %d) = %v, reference %v", c.name, bound, got, want)
			}
		}
	}
}

// TestValidatePlantedFaults plants one fault at a time and requires the
// reference's exact message: a disconnected cluster, a cluster one hop over
// the bound and an unclustered node, on a hand-made path decomposition and
// on EN results.
func TestValidatePlantedFaults(t *testing.T) {
	// Path 0..11 cut into clusters {0..3}, {4..8}, {9..11}, labelled by
	// their first node and colored 0, 1, 0.
	path := graph.Path(12)
	pathDecomp := func() *Decomposition {
		d := &Decomposition{Cluster: make([]int, 12), Color: make([]int, 12)}
		for v := range 12 {
			switch {
			case v < 4:
				d.Cluster[v], d.Color[v] = 0, 0
			case v < 9:
				d.Cluster[v], d.Color[v] = 4, 1
			default:
				d.Cluster[v], d.Color[v] = 9, 0
			}
		}
		return d
	}
	check := func(name string, g *graph.Graph, d *Decomposition, maxDiam int, want string) {
		t.Helper()
		ref := refValidate(d, g, 0, maxDiam)
		if ref == nil || ref.Error() != want {
			t.Fatalf("%s: reference says %v, want %q", name, ref, want)
		}
		if got := d.Validate(g, 0, maxDiam); got == nil || got.Error() != want {
			t.Errorf("%s: Validate = %v, want %q", name, got, want)
		}
	}
	if err := pathDecomp().Validate(path, 2, 4); err != nil {
		t.Fatalf("path decomposition: %v", err)
	}
	d := pathDecomp()
	for v := 9; v < 12; v++ {
		d.Cluster[v] = 0 // {0..3} and {9..11}: one cluster in two pieces
	}
	check("path/disconnected", path, d, 0, "decomp: cluster 0 induces a disconnected subgraph")
	check("path/over-bound", path, pathDecomp(), 3, "decomp: cluster 4 has strong diameter 4 > bound 3")
	d = pathDecomp()
	d.Cluster[10] = -1
	check("path/unclustered", path, d, 0, "decomp: node 10 is unclustered")

	for _, c := range decompCases(t) {
		if c.d.NumClusters() < 2 {
			continue
		}
		// Merge two same-colored clusters: they are not adjacent, so the
		// merged cluster is disconnected and nothing else is wrong.
		d := &Decomposition{Cluster: append([]int(nil), c.d.Cluster...), Color: c.d.Color}
		merged := false
		firstOfColor := map[int]int{}
		members := refMembers(d.Cluster)
		labels := slices.Sorted(maps.Keys(members))
		for _, l := range labels {
			col := d.Color[members[l][0]]
			if other, ok := firstOfColor[col]; ok {
				for _, v := range members[l] {
					d.Cluster[v] = other
				}
				check(c.name+"/disconnected", c.g, d, 0, fmt.Sprintf("decomp: cluster %d induces a disconnected subgraph", other))
				merged = true
				break
			}
			firstOfColor[col] = l
		}
		if !merged && len(labels) > len(firstOfColor) {
			t.Errorf("%s: no two clusters share a color", c.name)
		}
		d = &Decomposition{Cluster: append([]int(nil), c.d.Cluster...), Color: c.d.Color}
		v := c.g.N() / 2
		d.Cluster[v] = -1
		check(c.name+"/unclustered", c.g, d, 0, fmt.Sprintf("decomp: node %d is unclustered", v))
	}
}
