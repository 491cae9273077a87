// Package randlocal is a Go reproduction of "On the Use of Randomness in
// Local Distributed Graph Algorithms" by Mohsen Ghaffari and Fabian Kuhn
// (PODC 2019, arXiv:1906.00482).
//
// The package is the stable public facade over the implementation packages
// in internal/: a synchronous LOCAL/CONGEST simulator, randomness sources
// with exact bit accounting (full / k-wise independent / shared seed /
// one-bit-per-ball sparse), the network-decomposition constructions of
// Theorems 3.1, 3.6, 3.7 and 4.2, the splitting and conflict-free
// multi-coloring problems of Lemma 3.4 and Theorem 3.5, Luby's MIS and
// randomized (Δ+1)-coloring baselines, the SLOCAL model with its
// decomposition-driven derandomization pipeline, and the Section 4
// derandomization devices. See README.md for a tour and EXPERIMENTS.md for
// the per-theorem measurements.
//
// Quick start:
//
//	g := randlocal.GNPConnected(1024, 4.0/1024, randlocal.NewRNG(1))
//	d, res, err := randlocal.ElkinNeiman(g, randlocal.NewFullRandomness(7), nil, randlocal.ENConfig{})
//	if err != nil { ... }
//	fmt.Println(d.NumColors(), d.MaxClusterDiameter(g), res.Rounds)
package randlocal

import (
	"randlocal/internal/check"
	"randlocal/internal/coloring"
	"randlocal/internal/decomp"
	"randlocal/internal/derand"
	"randlocal/internal/graph"
	"randlocal/internal/hypergraph"
	"randlocal/internal/mis"
	"randlocal/internal/orientation"
	"randlocal/internal/prng"
	"randlocal/internal/protocols"
	"randlocal/internal/randomness"
	"randlocal/internal/rulingset"
	"randlocal/internal/sim"
	"randlocal/internal/slocal"
	"randlocal/internal/splitting"
)

// --- Graphs ----------------------------------------------------------------

// Graph is an immutable simple undirected graph on nodes 0..N()-1.
type Graph = graph.Graph

// RNG is the deterministic pseudo-random generator used by generators and
// randomness sources.
type RNG = prng.SplitMix64

// NewRNG returns a seeded generator.
func NewRNG(seed uint64) *RNG { return prng.New(seed) }

// Generators for the graph families used throughout the experiments.
var (
	GNP           = graph.GNP
	GNPConnected  = graph.GNPConnected
	Ring          = graph.Ring
	Path          = graph.Path
	Grid          = graph.Grid
	Torus         = graph.Torus
	Complete      = graph.Complete
	PowerLaw      = graph.PowerLaw
	PowerGraph    = graph.Power
	GraphDiameter = graph.Diameter
)

// Out-of-core graphs: WriteCSRFile persists a graph in the versioned on-disk
// CSR format (cmd/csrgen builds such files streamingly at scales where the
// edge set never fits in RAM), OpenCSRFile maps one back as a read-only
// mmap-backed Graph, and GNPConnectedStream is the O(n)-heap generator
// feeding the streaming builder — draw-for-draw identical to GNPConnected.
var (
	WriteCSRFile       = graph.WriteCSRFile
	OpenCSRFile        = graph.OpenCSRFile
	GNPConnectedStream = graph.GNPConnectedStream
)

// --- Randomness ------------------------------------------------------------

// RandomnessSource hands out per-node accounted random streams under one of
// the paper's randomness regimes.
type RandomnessSource = randomness.Source

// FullRandomness is the standard model: unbounded private coins per node.
type FullRandomness = randomness.Full

// SharedRandomness is the Section 3.2 model: one public seed, nothing else.
type SharedRandomness = randomness.Shared

// SparseRandomness is the Theorem 3.1/3.7 model: one private bit per holder.
type SparseRandomness = randomness.Sparse

// KWise is a k-wise independent family over GF(2^m) (the [AS04]
// construction Theorem 3.5 uses).
type KWise = randomness.KWise

// EpsBias is an AGHP small-bias generator (the [NN93] route of Lemma 3.4).
type EpsBias = randomness.EpsBias

// Ledger tracks true and derived random bits consumed.
type Ledger = randomness.Ledger

// NewFullRandomness returns the unbounded-private-coins source.
func NewFullRandomness(seed uint64) *FullRandomness { return randomness.NewFull(seed) }

// NewSharedRandomness draws a public seed of nbits true random bits.
func NewSharedRandomness(nbits int, rng *RNG) *SharedRandomness {
	return randomness.NewShared(nbits, rng)
}

// NewSparseRandomness places bitsPerHolder private bits at each holder.
func NewSparseRandomness(holders []int, bitsPerHolder int, seed uint64) (*SparseRandomness, error) {
	return randomness.NewSparse(holders, bitsPerHolder, seed)
}

// NewKWise draws a fresh k-wise independent family over GF(2^m).
func NewKWise(k int, m uint, rng *RNG) (*KWise, error) { return randomness.NewKWise(k, m, rng) }

// NewEpsBias draws a fresh small-bias generator over GF(2^m).
func NewEpsBias(m uint, rng *RNG) (*EpsBias, error) { return randomness.NewEpsBias(m, rng) }

// --- Reproducibility keys and the adversary --------------------------------

// SimulationKey is the single reproducibility handle of a run: algorithm
// coins, adversary coins, workload generation and scheduling jitter all
// derive from it through isolated per-subsystem streams, so consuming one
// stream never perturbs another. NewSimulationKey(s).FullSource() is
// bit-identical to NewFullRandomness(s) — old seeds keep reproducing old
// runs.
type SimulationKey = sim.SimulationKey

// PartitionedRNG hands out the per-subsystem generators of one key.
type PartitionedRNG = sim.PartitionedRNG

// NewSimulationKey wraps a master seed as a run key.
var NewSimulationKey = sim.NewSimulationKey

// Adversary is an immutable fault-injection plan for SimConfig.Adversary:
// message drops and delays, crash-stops, edge churn, and adversarial stalls,
// all drawn from the adversary stream of a SimulationKey so the algorithm's
// coins are untouched. Faulted runs stay deterministic and
// scheduler-equivalent; injections are recorded in Telemetry.Injected.
type Adversary = sim.Adversary

// AdversaryConfig sets an Adversary's per-round fault budgets.
type AdversaryConfig = sim.AdversaryConfig

// NewAdversary builds an adversary from a key's adversary stream and the
// given budgets.
var NewAdversary = sim.NewAdversary

// --- The LOCAL/CONGEST simulator --------------------------------------------

// SimConfig configures a simulation (graph, IDs, randomness, bandwidth).
type SimConfig = sim.Config

// Message is an opaque message payload; nil means "send nothing".
type Message = sim.Message

// NodeCtx is a node's time-zero knowledge.
type NodeCtx = sim.NodeCtx

// SimResult carries outputs and round/message/bit accounting.
type SimResult[T any] = sim.Result[T]

// NodeProgram is a deterministic per-node state machine.
type NodeProgram[T any] = sim.NodeProgram[T]

// Run executes node programs on a one-worker pool, inline on the calling
// goroutine (RunParallel with one worker).
func Run[T any](cfg SimConfig, factory func(v int) NodeProgram[T]) (*SimResult[T], error) {
	return sim.Run(cfg, factory)
}

// RunParallel executes with the sharded worker-pool engine: contiguous node
// shards over a fixed pool of `workers` goroutines (<= 0 means GOMAXPROCS),
// no per-node goroutines and no per-edge channels, so it scales to
// million-node graphs. Results are identical to Run's for equal configs.
func RunParallel[T any](cfg SimConfig, factory func(v int) NodeProgram[T], workers int) (*SimResult[T], error) {
	return sim.RunParallel(cfg, factory, workers)
}

// Execute dispatches to Run or RunParallel (with cfg.Workers) by
// cfg.Scheduler; the zero value is SchedulerSequential.
func Execute[T any](cfg SimConfig, factory func(v int) NodeProgram[T]) (*SimResult[T], error) {
	return sim.Execute(cfg, factory)
}

// Scheduler names one of the two engines; see the Scheduler* constants.
type Scheduler = sim.Scheduler

// The engine choices for SimConfig.Scheduler and ExecOptions.Scheduler.
const (
	SchedulerSequential = sim.Sequential
	SchedulerParallel   = sim.Parallel
)

// ExecOptions are the per-run execution knobs — scheduler, workers,
// unpacked planes, telemetry, progress hook — that every algorithm wrapper
// takes (the Exec field of its config, or a trailing argument) and applies
// to the simulation it starts. There are no package-wide defaults: the zero
// value runs on one worker.
type ExecOptions = sim.ExecOptions

// Telemetry is the optional per-run scheduling measurement attached to
// SimResult.Telemetry when SimConfig.Telemetry (ExecOptions.Telemetry) asks
// for it or the run has an adversary: per-round per-worker compute times,
// staged-message counts and delivery-mode choices.
type Telemetry = sim.Telemetry

// RoundStats is one round's telemetry across the engine's lanes.
type RoundStats = sim.RoundStats

// DeliveryMode names the delivery strategy a lane chose for one round.
type DeliveryMode = sim.DeliveryMode

// The delivery strategies reported in RoundStats.Mode.
const (
	DeliverSparse = sim.DeliverSparse
	DeliverDense  = sim.DeliverDense
	DeliverPacked = sim.DeliverPacked
)

// PayloadBitsDeclarer is the optional capability a node program implements
// to declare its maximum per-message payload width. When every program of a
// run declares a width of at most one bit, the sequential and parallel
// engines replace their message planes with packed bitmaps and deliver
// word-parallel (64 half-edge lanes per operation); SimConfig.Unpacked opts
// a run out for A/B comparison, with a byte-identical SimResult either way.
type PayloadBitsDeclarer = sim.PayloadBitsDeclarer

// CongestBits is the standard CONGEST bandwidth bound used by experiments.
var CongestBits = sim.CongestBits

// The varint message codec, for custom node programs that want honest
// Θ(log x)-bit CONGEST accounting per encoded field. DecodeUintsInto is the
// allocation-free decoder for fixed-shape messages: pair it with
// NodeCtx.Broadcast / NodeCtx.Uints to write programs whose steady-state
// rounds allocate nothing (see README "Memory layout").
var (
	Uints           = sim.Uints
	ReadUint        = sim.ReadUint
	DecodeUints     = sim.DecodeUints
	DecodeUintsInto = sim.DecodeUintsInto
	DecodeAllUints  = sim.DecodeAllUints
)

// SetDebugOutboxCheck toggles the engines' poisoned-Outbox check: when
// enabled, a program that returns NodeCtx.Outbox without setting or nilling
// every port fails the run with a descriptive error instead of silently
// re-sending a stale message. Off by default (the sentinel fill costs one
// write per half-edge per round); this repository's test suites switch it
// on. It is the only package-wide switch: a safety check that never changes
// a correct program's result, where everything that steers a run is an
// ExecOptions / SimConfig field.
var SetDebugOutboxCheck = sim.SetDebugOutboxCheck

// ID assignment helpers.
var (
	SequentialIDs = sim.SequentialIDs
	RandomIDs     = sim.RandomIDs
)

// --- Network decomposition ---------------------------------------------------

// Decomposition is a strong-diameter network decomposition.
type Decomposition = decomp.Decomposition

// ENConfig parameterizes the Elkin–Neiman construction.
type ENConfig = decomp.ENConfig

// LowRandConfig parameterizes the Theorem 3.1/3.7 constructions.
type LowRandConfig = decomp.LowRandConfig

// SharedRandConfig parameterizes the Theorem 3.6 construction.
type SharedRandConfig = decomp.SharedRandConfig

// ShatteringConfig parameterizes the Theorem 4.2 construction.
type ShatteringConfig = decomp.ShatteringConfig

// Decomposition algorithms, one per theorem (EXPERIMENTS.md maps each
// to its measured claim).
var (
	ElkinNeiman                = decomp.ElkinNeiman
	LowRand                    = decomp.LowRand
	StrongLowRand              = decomp.StrongLowRand
	SharedRand                 = decomp.SharedRand
	Shattering                 = decomp.Shattering
	DeterministicDecomposition = decomp.DeterministicSequential
	GreedyDominatingSet        = decomp.GreedyDominatingSet
	// MPXPartition is the single-pass Miller–Peng–Xu random-shift
	// partition [MPX13] that Lemma 3.3's construction builds on.
	MPXPartition = decomp.MPXPartition
)

// --- Protocol building blocks ---------------------------------------------------

// BFSOutput is the per-node result of the BFS-tree protocol.
type BFSOutput = protocols.BFSOutput

// FloodMinBitProgram is one node of the 1-bit AND-flood (the packed-plane
// restriction of FloodMin).
type FloodMinBitProgram = protocols.FloodMinBitProgram

var (
	// BFSTree builds a BFS tree from a root and convergecasts subtree
	// sizes — the "cluster around a center + upcast" motif of Lemma 3.2.
	BFSTree = protocols.BFSTree
	// ElectLeader floods minimum identifiers (leader election).
	ElectLeader = protocols.ElectLeader
	// FloodMinBit floods the global AND of per-node input bits — the 1-bit
	// restriction of FloodMin, executed over packed bit planes.
	FloodMinBit = protocols.FloodMinBit
	// NewFloodMinBit returns one node's AND-flood program for direct use
	// with the engines.
	NewFloodMinBit = protocols.NewFloodMinBit
)

// --- Sinkless orientation -------------------------------------------------------

// SinklessOrientation runs the randomized retry algorithm for sinkless
// orientation — the exponential randomized-vs-deterministic separation
// example of the paper's Section 1.1.
var SinklessOrientation = orientation.Sinkless

// EdgeOrientation is an antisymmetric edge orientation with a sinklessness
// checker.
type EdgeOrientation = orientation.Orientation

// --- Ruling sets --------------------------------------------------------------

// RulingSetResult is a computed (α, α·log n)-ruling set.
type RulingSetResult = rulingset.Result

// RulingSet computes a deterministic (alpha, alpha·b)-ruling set [AGLP89].
var RulingSet = rulingset.Compute

// VerifyRulingSet checks separation and domination against the graph.
var VerifyRulingSet = rulingset.Verify

// --- Symmetry breaking ---------------------------------------------------------

// LubyConfig parameterizes Luby's MIS program.
type LubyConfig = mis.LubyConfig

// LubyOutput is the per-node result of Luby's program.
type LubyOutput = mis.LubyOutput

// LubyBitConfig parameterizes the coin-flip (1-bit-message) Luby variant.
type LubyBitConfig = mis.LubyBitConfig

// NewLubyProgram returns one node's Luby state machine for direct use with
// Run or RunParallel.
var NewLubyProgram = mis.NewProgram

// NewLubyBitProgram returns one node's coin-flip Luby state machine — a pure
// 1-bit protocol that declares PayloadBits() = 1, so the engines run it over
// packed bit planes.
var NewLubyBitProgram = mis.NewBitProgram

// NewLubyBitProgramSlab is NewLubyBitProgram's slab-factory form for
// million-node runs: all n program structs come from one allocation.
var NewLubyBitProgramSlab = mis.NewBitProgramSlab

// ColoringConfig parameterizes the randomized (Δ+1)-coloring program.
type ColoringConfig = coloring.Config

var (
	// Luby runs Luby's randomized MIS in the CONGEST model.
	Luby = mis.Luby
	// LubyBit runs the coin-flip 1-bit-message Luby variant over packed
	// bit planes (LubyBitConfig.Unpacked opts out, byte-identically).
	LubyBit = mis.LubyBit
	// GreedyMIS is the sequential greedy reference.
	GreedyMIS = mis.Greedy
	// RandomizedColoring runs the trial-color (Δ+1)-coloring program.
	RandomizedColoring = coloring.Randomized
	// GreedyColoring is the sequential greedy reference.
	GreedyColoring = coloring.Greedy
)

// --- SLOCAL and derandomization -------------------------------------------------

// SLOCALAlgorithm is a sequential-local algorithm with bounded locality.
type SLOCALAlgorithm[T any] = slocal.Algorithm[T]

// SLOCALCompileResult carries the compiled LOCAL schedule's accounting.
type SLOCALCompileResult[T any] = slocal.CompileResult[T]

// RunSLOCAL executes an SLOCAL algorithm sequentially.
func RunSLOCAL[T any](g *Graph, algo SLOCALAlgorithm[T], order []int) []T {
	return slocal.RunSequential(g, algo, order)
}

// CompileSLOCAL schedules an SLOCAL algorithm as a deterministic LOCAL
// execution using a decomposition of the appropriate power graph.
func CompileSLOCAL[T any](g *Graph, algo SLOCALAlgorithm[T], d *Decomposition) (*SLOCALCompileResult[T], error) {
	return slocal.Compile(g, algo, d)
}

var (
	// SLOCALGreedyMIS is the locality-1 member of P-SLOCAL the paper
	// cites as a motivating example.
	SLOCALGreedyMIS = slocal.GreedyMIS
	// DerandomizedMIS and DerandomizedColoring run the full zero-
	// randomness pipeline (decompose G³, compile greedy through it).
	DerandomizedMIS      = slocal.DerandomizedMIS
	DerandomizedColoring = slocal.DerandomizedColoring
	// SeedSearch is Lemma 4.1's counting argument, executable at small n.
	SeedSearch = derand.SeedSearch
	// NeighborhoodSplitting is the zero-round demonstration problem used
	// by the Lemma 4.1 seed search.
	NeighborhoodSplitting = derand.NeighborhoodSplitting
	// AllGraphs enumerates every labeled simple graph on n nodes.
	AllGraphs = derand.AllGraphs
)

// --- Splitting and conflict-free multi-coloring ----------------------------------

// SplittingInstance is a bipartite splitting instance (Lemma 3.4).
type SplittingInstance = splitting.Instance

// Hypergraph is a hypergraph for conflict-free multi-coloring (Thm 3.5).
type Hypergraph = hypergraph.Hypergraph

var (
	RandomSplittingInstance = splitting.RandomInstance
	SolveSplittingPrivate   = splitting.SolvePrivate
	SolveSplittingKWise     = splitting.SolveKWise
	SolveSplittingEpsBias   = splitting.SolveEpsBias
	// SolveSplittingCondExp derandomizes splitting by the method of
	// conditional expectations — the pessimistic-estimator machinery of
	// the P-RLOCAL = P-SLOCAL theorem, as an SLOCAL locality-1 algorithm.
	SolveSplittingCondExp  = splitting.ConditionalExpectations
	SolveCFMC              = hypergraph.Solve
	SolveCFMCDeterministic = hypergraph.SolveSmallDeterministic
)

// --- Checkers ----------------------------------------------------------------------

var (
	// CheckMIS, CheckColoring, CheckSplitting and CheckConflictFree are the
	// global validators; the *Distributed variants are the Definition 2.2
	// d-round checker programs.
	CheckMIS                  = check.MIS
	CheckColoring             = check.Coloring
	CheckSplitting            = check.Splitting
	CheckConflictFree         = check.ConflictFree
	CheckMISDistributed       = check.MISDistributed
	CheckDecompositionDistrib = check.DecompositionDistributed

	// The Opts variants run the same checker programs on a configured
	// network — attach a CheckOptions.Adversary to exercise a checker as a
	// one-sided oracle over a faulty network (false-rejects possible, false
	// accepts never), and set CheckOptions.Exec to pick its engine.
	CheckMISDistributedOpts       = check.MISDistributedOpts
	CheckColoringDistributedOpts  = check.ColoringDistributedOpts
	CheckDecompositionDistribOpts = check.DecompositionDistributedOpts
)

// CheckOptions configures the verification network the *DistributedOpts
// checkers run on.
type CheckOptions = check.Options
