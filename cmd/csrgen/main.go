// Command csrgen streams a generator family into the on-disk CSR graph
// format (internal/graph/csrfile), deterministically from the workload seed:
// the same -graph/-n/-p/-deg/-seed that locsim and locsimd accept produce a
// file whose graph is identical to what serve.BuildGraph would generate in
// RAM, so `locsim -graphfile` and a generated run of the same parameters
// solve the same instance.
//
// gnp — the one family whose edge count dwarfs n — streams natively
// (graph.GNPConnectedStream into csrfile.Builder, which scatters the edge
// stream into the file's rows and sorts each row in place), so peak RAM
// stays O(n) however many edges the sample has. The O(n)-edge families
// (ring, grid, tree, cliques, regular) generate in RAM and stream out.
//
// Usage:
//
//	csrgen -graph gnp -n 8388608 -seed 1 -o g23.csr
//	csrgen -graph ring -n 65536 -o ring.csr
//	locsim -graphfile g23.csr -algo luby -seed 1
package main

import (
	"flag"
	"fmt"
	"os"

	"randlocal/internal/graph"
	"randlocal/internal/graph/csrfile"
	"randlocal/internal/prng"
	"randlocal/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "csrgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("csrgen", flag.ContinueOnError)
	graphKind := fs.String("graph", "gnp", "graph family: gnp | ring | grid | tree | cliques | regular")
	n := fs.Int("n", 512, "number of nodes (grid rounds to a square)")
	p := fs.Float64("p", 0.0, "edge probability for gnp (0 = 4/n)")
	deg := fs.Int("deg", 3, "degree for regular graphs")
	seed := fs.Uint64("seed", 1, "random seed (the same seed locsim would use)")
	out := fs.String("o", "", "output file (required)")
	verify := fs.Bool("verify", true, "re-read the file and check its checksum after writing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-o is required")
	}
	if err := serve.ValidateGraphSpec(*graphKind, *n, *p, *deg); err != nil {
		return err
	}

	b, err := csrfile.NewBuilder(*out, *n)
	if err != nil {
		return err
	}
	if *graphKind == "gnp" {
		prob, _ := serve.FamilyDefaults(*n, *p, *deg)
		graph.GNPConnectedStream(*n, prob, prng.New(*seed), b.AddEdge)
	} else {
		g, err := serve.BuildGraph(*graphKind, *n, *p, *deg, *seed)
		if err != nil {
			b.Abort()
			return err
		}
		g.Edges(b.AddEdge)
	}
	hdr, err := b.Finalize()
	if err != nil {
		return err
	}
	note := ""
	if *verify {
		if err := csrfile.Verify(*out); err != nil {
			return err
		}
		note = ", checksum verified"
	}
	fmt.Printf("csrgen: wrote %s: n=%d m=%d halfEdges=%d (%d bytes%s)\n",
		*out, hdr.N, hdr.Edges(), hdr.HalfEdges, hdr.FileSize(), note)
	return nil
}
