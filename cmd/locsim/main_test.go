package main

import (
	"strings"
	"testing"
)

// TestRejectsInfeasibleShape: a shape the daemon refuses must make locsim
// return an error (and so exit nonzero), not panic inside the generator.
func TestRejectsInfeasibleShape(t *testing.T) {
	err := run([]string{"-graph", "regular", "-n", "16", "-deg", "15", "-algo", "luby"})
	if err == nil || !strings.Contains(err.Error(), "deg <= n/2") {
		t.Fatalf("run = %v, want the deg <= n/2 rejection", err)
	}
}
