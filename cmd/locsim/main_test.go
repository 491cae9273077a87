package main

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"randlocal/internal/serve"
	"randlocal/internal/sim"
)

// TestRejectsInfeasibleShape: a shape the daemon refuses must make locsim
// return an error (and so exit nonzero), not panic inside the generator.
func TestRejectsInfeasibleShape(t *testing.T) {
	err := run([]string{"-graph", "regular", "-n", "16", "-deg", "15", "-algo", "luby"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "deg <= n/2") {
		t.Fatalf("run = %v, want the deg <= n/2 rejection", err)
	}
}

// TestMatchesExecute holds the CLI to the daemon's executor: each
// single-simulation invocation prints the rounds and messages of
// serve.Execute on the equivalent request, and a rejected faulted run
// returns errRejected.
func TestMatchesExecute(t *testing.T) {
	cases := []struct {
		args []string
		req  serve.RunRequest
	}{
		{[]string{"-algo", "en", "-n", "256", "-seed", "1"},
			serve.RunRequest{Algo: "en", N: 256, Seed: 1}},
		{[]string{"-algo", "luby", "-n", "512", "-seed", "42"},
			serve.RunRequest{Algo: "luby", N: 512, Seed: 42}},
		{[]string{"-algo", "lubybit", "-n", "512", "-seed", "42"},
			serve.RunRequest{Algo: "lubybit", N: 512, Seed: 42}},
		{[]string{"-algo", "coloring", "-graph", "regular", "-n", "512", "-deg", "4", "-seed", "3"},
			serve.RunRequest{Algo: "coloring", Graph: "regular", N: 512, Deg: 4, Seed: 3}},
		{[]string{"-algo", "en", "-n", "256", "-seed", "1", "-scheduler", "parallel", "-workers", "3"},
			serve.RunRequest{Algo: "en", N: 256, Seed: 1, Scheduler: "parallel", Workers: 3}},
		{[]string{"-algo", "en", "-n", "256", "-seed", "1", "-scheduler", "parallel", "-workers", "3", "-drop", "0.3", "-crash", "4"},
			serve.RunRequest{Algo: "en", N: 256, Seed: 1, Scheduler: "parallel", Workers: 3,
				Adversary: serve.AdversaryKnobs{Drop: 0.3, DelayMax: 2, Crash: 4}}},
		{[]string{"-algo", "en", "-n", "512", "-seed", "5", "-scheduler", "parallel", "-workers", "3", "-drop", "0.05"},
			serve.RunRequest{Algo: "en", N: 512, Seed: 5, Scheduler: "parallel", Workers: 3,
				Adversary: serve.AdversaryKnobs{Drop: 0.05, DelayMax: 2}}},
	}
	sawReject, sawFaultedValid := false, false
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			want, err := serve.Execute(tc.req, sim.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			err = run(tc.args, &b)
			if want.Valid && err != nil {
				t.Fatalf("run = %v on a valid run\n%s", err, b.String())
			}
			if !want.Valid {
				sawReject = true
				if !errors.Is(err, errRejected) {
					t.Fatalf("run = %v on a rejected run, want errRejected\n%s", err, b.String())
				}
			} else if !tc.req.Adversary.Zero() {
				sawFaultedValid = true
			}
			line := fmt.Sprintf("%s rounds=%d messages=%d ", want.Summary, want.Rounds, want.Messages)
			if !strings.Contains(b.String(), line) {
				t.Errorf("output lacks %q:\n%s", line, b.String())
			}
			if !tc.req.Adversary.Zero() && !strings.Contains(b.String(), "telemetry: injected faults:") {
				t.Errorf("faulted run printed no injected-fault telemetry:\n%s", b.String())
			}
		})
	}
	if !sawReject || !sawFaultedValid {
		t.Fatalf("table covers a rejected faulted run: %v, a valid faulted run: %v; want both", sawReject, sawFaultedValid)
	}
}

// TestOtherAlgorithms runs each -algo value that does not go through
// serve.Run on a small graph: it must return nil and print its result line
// (a validity verdict, or MPX's partition line, which has no checker).
func TestOtherAlgorithms(t *testing.T) {
	for _, tc := range []struct {
		algo, graph, n, want string
	}{
		{"lowrand", "ring", "200", "LowRand (Thm 3.1): valid strong-diameter decomposition"},
		{"strong37", "gnp", "256", "StrongLowRand (Thm 3.7): valid strong-diameter decomposition"},
		{"sharedrand", "gnp", "256", "SharedRand (Thm 3.6): valid strong-diameter decomposition"},
		{"shattering", "gnp", "256", "Shattering (Thm 4.2): valid (weak-diameter)"},
		{"detdecomp", "gnp", "256", "Deterministic sequential (zero randomness): valid strong-diameter decomposition"},
		{"mpx", "gnp", "256", "MPX random-shift partition: maxClusterDiameter="},
		{"sinkless", "gnp", "256", "Sinkless orientation: valid"},
		{"derand-mis", "gnp", "256", "Derandomized MIS: valid"},
		{"derand-coloring", "gnp", "256", "Derandomized (Δ+1)-coloring: valid"},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			var b strings.Builder
			if err := run([]string{"-algo", tc.algo, "-graph", tc.graph, "-n", tc.n, "-seed", "1"}, &b); err != nil {
				t.Fatalf("run = %v\n%s", err, b.String())
			}
			if !strings.Contains(b.String(), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, b.String())
			}
		})
	}
}
