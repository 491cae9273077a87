// Primitives: a tour of the distributed building blocks underneath the
// paper's constructions — leader election by flooding, BFS-tree +
// convergecast (the Lemma 3.2 "upcast" motif), the MPX random-shift
// partition behind Elkin–Neiman, and sinkless orientation (the paper's
// §1.1 exponential-separation example).
package main

import (
	"fmt"
	"log"

	"randlocal"
)

func main() {
	// One key reproduces the whole scenario: the graph and the IDs draw
	// from its workload stream, algorithm coins from its algorithm stream.
	key := randlocal.NewSimulationKey(6)
	g := randlocal.GNPConnected(400, 4.0/400, key.RNG().Workload())
	fmt.Printf("network: %v\n\n", g)

	// Leader election: flood the minimum identifier.
	ids := randlocal.RandomIDs(g.N(), 5, key)
	leaders, res, err := randlocal.ElectLeader(g, ids, 0, randlocal.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leader election: everyone agrees on %d after %d rounds\n", leaders[0], res.Rounds)

	// BFS tree + convergecast: the root learns the component size.
	outs, bres, err := randlocal.BFSTree(g, ids[0], ids, randlocal.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BFS tree from node 0: depth wave + upcast in %d rounds, root counted %d nodes\n",
		bres.Rounds, outs[0].SubtreeSize)

	// MPX random-shift partition: one flooding pass, low-diameter clusters.
	mpx, err := randlocal.MPXPartition(g, randlocal.NewFullRandomness(2), nil, randlocal.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MPX partition: max cluster diameter %d, %d/%d edges cut, %d rounds\n",
		mpx.MaxClusterDiameter, mpx.CutEdges, g.M(), mpx.Rounds)

	// Sinkless orientation on a 4-regular torus.
	torus := randlocal.Torus(20, 20)
	or, err := randlocal.SinklessOrientation(torus, randlocal.NewFullRandomness(3), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sinkless orientation on a 20x20 torus: valid after %d retry rounds (%d re-draws)\n",
		or.Rounds, or.Retries)
	fmt.Println("\n(§1.1: this problem separates randomized Θ(log log n) from deterministic Θ(log n))")
}
