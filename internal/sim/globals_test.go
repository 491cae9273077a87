package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestPackageVarsAllowlist keeps sim free of package-level run settings: a
// run is steered only by its Config (ExecOptions), so every package-level
// var of the non-test sources must be a constant table or the one
// debug-only safety switch. A new var fails here until it is reviewed and
// added to the list.
func TestPackageVarsAllowlist(t *testing.T) {
	allowed := []string{
		"bitWire",          // the two canonical 1-bit wire messages (node.go)
		"debugOutboxCheck", // the poisoned-Outbox safety check (debug.go)
		"outboxPoison",     // its sentinel payload (debug.go)
		"subsystemSalt",    // per-subsystem stream salts (key.go)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var found []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if id.Name != "_" {
						found = append(found, id.Name)
					}
				}
			}
		}
	}
	slices.Sort(found)
	if !slices.Equal(found, allowed) {
		t.Errorf("package-level vars of sim = %v, want exactly %v", found, allowed)
	}
}
