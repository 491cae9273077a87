package splitting

import (
	"testing"

	"randlocal/internal/prng"
	"randlocal/internal/randomness"
)

func TestRandomInstanceShape(t *testing.T) {
	rng := prng.New(1)
	inst := RandomInstance(20, 100, 15, rng)
	if err := inst.Validate(15); err != nil {
		t.Fatal(err)
	}
	if len(inst.AdjU) != 20 || inst.NV != 100 {
		t.Fatalf("shape: %d U-nodes, %d V-nodes", len(inst.AdjU), inst.NV)
	}
	for u, ns := range inst.AdjU {
		seen := map[int]bool{}
		for _, v := range ns {
			if seen[v] {
				t.Fatalf("U-node %d has duplicate neighbor %d", u, v)
			}
			seen[v] = true
		}
	}
}

func TestValidateRejects(t *testing.T) {
	inst := &Instance{NV: 5, AdjU: [][]int{{0, 1}}}
	if err := inst.Validate(3); err == nil {
		t.Error("degree violation accepted")
	}
	bad := &Instance{NV: 2, AdjU: [][]int{{0, 7}}}
	if err := bad.Validate(1); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
}

func TestSolvePrivateSucceedsWHP(t *testing.T) {
	rng := prng.New(2)
	inst := RandomInstance(50, 300, 30, rng)
	fails := 0
	for trial := 0; trial < 50; trial++ {
		src := randomness.NewFull(uint64(trial))
		colors := SolvePrivate(inst, src)
		if !inst.Check(colors) {
			fails++
		}
	}
	// Per-U failure 2·2^-30; over 50 U-nodes and 50 trials ≈ 0 expected.
	if fails > 0 {
		t.Errorf("private coins failed %d/50 trials", fails)
	}
}

func TestSolveKWiseSucceeds(t *testing.T) {
	rng := prng.New(3)
	inst := RandomInstance(40, 200, 25, rng)
	ok := 0
	for trial := 0; trial < 30; trial++ {
		fam, err := randomness.NewKWise(16, 32, prng.New(uint64(trial)*31+7))
		if err != nil {
			t.Fatal(err)
		}
		colors := SolveKWise(inst, fam)
		if inst.Check(colors) {
			ok++
		}
	}
	if ok < 28 {
		t.Errorf("k-wise solver succeeded only %d/30 times", ok)
	}
}

func TestSolveEpsBiasSucceeds(t *testing.T) {
	rng := prng.New(4)
	inst := RandomInstance(40, 200, 25, rng)
	ok := 0
	for trial := 0; trial < 30; trial++ {
		gen, err := randomness.NewEpsBias(24, prng.New(uint64(trial)*17+3))
		if err != nil {
			t.Fatal(err)
		}
		colors := SolveEpsBias(inst, gen)
		if inst.Check(colors) {
			ok++
		}
	}
	if ok < 28 {
		t.Errorf("eps-bias solver (48 seed bits) succeeded only %d/30 times", ok)
	}
}

func TestCheckRejectsMonochromatic(t *testing.T) {
	inst := &Instance{NV: 4, AdjU: [][]int{{0, 1, 2}}}
	if inst.Check([]int{1, 1, 1, 0}) {
		t.Error("monochromatic neighborhood accepted")
	}
	if !inst.Check([]int{1, 0, 1, 0}) {
		t.Error("valid split rejected")
	}
}

func TestRandomInstancePanicsOnInfeasibleDegree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("degree > nv did not panic")
		}
	}()
	RandomInstance(2, 3, 5, prng.New(1))
}

func TestConditionalExpectationsAlwaysSucceeds(t *testing.T) {
	rng := prng.New(41)
	for trial := 0; trial < 20; trial++ {
		// deg=16 over 60 U-nodes: initial expectation 60·2^{-15} < 1.
		inst := RandomInstance(60, 300, 16, rng)
		colors, err := ConditionalExpectations(inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !inst.Check(colors) {
			t.Fatalf("trial %d: invalid coloring", trial)
		}
	}
}

func TestConditionalExpectationsIsDeterministic(t *testing.T) {
	inst := RandomInstance(30, 150, 14, prng.New(5))
	a, err := ConditionalExpectations(inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConditionalExpectations(inst)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("derandomized algorithm gave two answers")
		}
	}
}

func TestConditionalExpectationsRejectsSmallDegrees(t *testing.T) {
	// 8 U-nodes of degree 2: expectation 8·2^{-1} = 4 >= 1.
	inst := RandomInstance(8, 20, 2, prng.New(6))
	if _, err := ConditionalExpectations(inst); err == nil {
		t.Error("estimator should reject infeasible degrees")
	}
}

func TestConditionalExpectationsBoundaryExpectation(t *testing.T) {
	// One U-node with degree 1: expectation exactly 1 (2·2^{-1}) -> reject.
	inst := &Instance{NV: 2, AdjU: [][]int{{0}}}
	if _, err := ConditionalExpectations(inst); err == nil {
		t.Error("expectation exactly 1 should be rejected")
	}
}

func TestConditionalExpectationsOutOfRange(t *testing.T) {
	inst := &Instance{NV: 1, AdjU: [][]int{{5}}}
	if _, err := ConditionalExpectations(inst); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
}
