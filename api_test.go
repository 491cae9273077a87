package randlocal

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestFacadeAPI pins the facade's exported names to api.txt, so any change
// to the public surface is a reviewed diff of that one file. To change the
// surface on purpose, edit randlocal.go and api.txt together.
func TestFacadeAPI(t *testing.T) {
	got := facadeNames(t)
	data, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(data))
	for _, n := range got {
		if !slices.Contains(want, n) {
			t.Errorf("+%s: exported by randlocal.go but missing from api.txt", n)
		}
	}
	for _, n := range want {
		if !slices.Contains(got, n) {
			t.Errorf("-%s: listed in api.txt but no longer exported by randlocal.go", n)
		}
	}
	if !slices.IsSorted(want) {
		t.Error("api.txt is not sorted")
	}
}

// facadeNames returns the sorted exported top-level names of randlocal.go.
func facadeNames(t *testing.T) []string {
	f, err := parser.ParseFile(token.NewFileSet(), "randlocal.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names = append(names, id.Name)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n)
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}
