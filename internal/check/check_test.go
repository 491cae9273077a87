package check

import (
	"testing"

	"randlocal/internal/decomp"
	"randlocal/internal/graph"
	"randlocal/internal/prng"
)

func TestMISValidator(t *testing.T) {
	g := graph.Path(4)
	if err := MIS(g, []bool{true, false, true, false}); err != nil {
		t.Errorf("valid MIS rejected: %v", err)
	}
	if err := MIS(g, []bool{true, true, false, true}); err == nil {
		t.Error("adjacent members accepted")
	}
	if err := MIS(g, []bool{true, false, false, false}); err == nil {
		t.Error("non-maximal set accepted")
	}
	if err := MIS(g, []bool{true}); err == nil {
		t.Error("short indicator accepted")
	}
}

func TestColoringValidator(t *testing.T) {
	g := graph.Ring(4)
	if err := Coloring(g, []int{0, 1, 0, 1}, 2); err != nil {
		t.Errorf("valid coloring rejected: %v", err)
	}
	if err := Coloring(g, []int{0, 0, 1, 1}, 2); err == nil {
		t.Error("monochromatic edge accepted")
	}
	if err := Coloring(g, []int{0, 1, 0, 5}, 2); err == nil {
		t.Error("palette overflow accepted")
	}
	if err := Coloring(g, []int{0, 1, 0, -1}, 2); err == nil {
		t.Error("uncolored node accepted")
	}
	if err := Coloring(g, []int{0, 1}, 2); err == nil {
		t.Error("short array accepted")
	}
	// maxColors <= 0 skips the palette bound.
	if err := Coloring(g, []int{0, 7, 0, 7}, 0); err != nil {
		t.Errorf("palette bound not skipped: %v", err)
	}
}

func TestSplittingValidator(t *testing.T) {
	adjU := [][]int{{0, 1}, {1, 2}}
	if err := Splitting(adjU, []int{0, 1, 0}); err != nil {
		t.Errorf("valid split rejected: %v", err)
	}
	if err := Splitting(adjU, []int{0, 0, 1}); err == nil {
		t.Error("monochromatic U-node accepted")
	}
	if err := Splitting(adjU, []int{0, 2, 1}); err == nil {
		t.Error("color 2 accepted")
	}
	if err := Splitting([][]int{{5}}, []int{0}); err == nil {
		t.Error("out-of-range V reference accepted")
	}
}

func TestConflictFreeValidator(t *testing.T) {
	edges := [][]int{{0, 1, 2}, {1, 2}}
	// Node 0 has color 7 uniquely in edge 0; node 1 color 3 unique in edge 1.
	sets := [][]int{{7}, {3}, {4}}
	if err := ConflictFree(edges, sets); err != nil {
		t.Errorf("valid multicoloring rejected: %v", err)
	}
	// Both members of edge 1 share every color.
	bad := [][]int{{7}, {3}, {3}}
	if err := ConflictFree(edges, bad); err == nil {
		t.Error("conflicted edge accepted")
	}
	if err := ConflictFree([][]int{{9}}, sets); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := ConflictFree([][]int{{}}, sets); err != nil {
		t.Errorf("empty edge should be vacuously fine: %v", err)
	}
}

func TestMISDistributedAgreesWithValidator(t *testing.T) {
	rng := prng.New(12)
	for trial := 0; trial < 6; trial++ {
		g := graph.GNPConnected(40, 0.1, rng)
		// Build a valid MIS greedily.
		in := make([]bool, g.N())
		for v := 0; v < g.N(); v++ {
			ok := true
			for _, w := range g.Neighbors(v) {
				if in[w] {
					ok = false
				}
			}
			in[v] = ok
		}
		all, answers, err := MISDistributed(g, in)
		if err != nil {
			t.Fatal(err)
		}
		if !all {
			t.Fatalf("trial %d: distributed checker rejected a valid MIS (answers %v)", trial, answers)
		}
		// Corrupt: flip one node.
		in[trial%g.N()] = !in[trial%g.N()]
		all, _, err = MISDistributed(g, in)
		if err != nil {
			t.Fatal(err)
		}
		if all {
			t.Fatalf("trial %d: distributed checker accepted a corrupted MIS", trial)
		}
	}
}

func TestColoringDistributedAgreesWithValidator(t *testing.T) {
	g := graph.Ring(12)
	colors := []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	all, _, err := ColoringDistributedOpts(g, colors, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !all {
		t.Error("valid 2-coloring of C12 rejected")
	}
	colors[3] = 0 // monochromatic edge {3,4}? C12: 3-4 edge colors 0,0
	all, answers, err := ColoringDistributedOpts(g, colors, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if all {
		t.Error("corrupted coloring accepted")
	}
	// Exactly the endpoints of violated edges answer no.
	if answers[3] || answers[2] || answers[4] {
		t.Error("wrong nodes flagged the violation")
	}
	if !answers[0] || !answers[7] {
		t.Error("distant nodes should still answer yes")
	}
}

func TestColoringDistributedPaletteBound(t *testing.T) {
	g := graph.Path(3)
	all, _, err := ColoringDistributedOpts(g, []int{0, 9, 0}, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if all {
		t.Error("out-of-palette color accepted")
	}
}

func TestDecompositionDistributedChecker(t *testing.T) {
	g := graph.Path(8)
	// Two clusters of four, alternating colors, radius <= 3.
	d := &decomp.Decomposition{
		Cluster: []int{0, 0, 0, 0, 1, 1, 1, 1},
		Color:   []int{0, 0, 0, 0, 1, 1, 1, 1},
	}
	ok, err := DecompositionDistributed(g, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("valid decomposition rejected")
	}
	// Same color across adjacent clusters.
	bad := &decomp.Decomposition{
		Cluster: []int{0, 0, 0, 0, 1, 1, 1, 1},
		Color:   []int{0, 0, 0, 0, 0, 0, 0, 0},
	}
	ok, err = DecompositionDistributed(g, bad, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("same-color adjacency accepted")
	}
	// Radius too small for the flood: checker must reject.
	ok, err = DecompositionDistributed(g, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("radius-1 checker accepted radius-3 clusters")
	}
	// Disconnected cluster: members can never hear the minimum.
	disc := &decomp.Decomposition{
		Cluster: []int{0, 1, 0, 1, 2, 2, 2, 2},
		Color:   []int{0, 1, 0, 1, 2, 2, 2, 2},
	}
	ok, err = DecompositionDistributed(g, disc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("disconnected cluster accepted")
	}
	// Unclustered node.
	un := &decomp.Decomposition{
		Cluster: []int{-1, 0, 0, 0, 1, 1, 1, 1},
		Color:   []int{0, 0, 0, 0, 1, 1, 1, 1},
	}
	ok, err = DecompositionDistributed(g, un, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("unclustered node accepted")
	}
}

func TestSplittingDistributedAgreesWithGlobal(t *testing.T) {
	adjU := [][]int{{0, 1, 2}, {1, 2, 3}}
	good := []int{0, 1, 0, 1}
	ok, err := SplittingDistributedOpts(adjU, 4, good, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("valid split rejected by the distributed checker")
	}
	if err := Splitting(adjU, good); err != nil {
		t.Errorf("global validator disagrees: %v", err)
	}
	// U-node 0 sees only color 0.
	bad := []int{0, 0, 0, 1}
	ok, err = SplittingDistributedOpts(adjU, 4, bad, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("monochromatic U-node accepted by the distributed checker")
	}
	// Out-of-range color.
	weird := []int{0, 2, 1, 1}
	ok, err = SplittingDistributedOpts(adjU, 4, weird, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("color 2 accepted by the distributed checker")
	}
}
