package sim

import (
	"hash/fnv"
	"io"

	"randlocal/internal/prng"
	"randlocal/internal/randomness"
)

// SimulationKey is the single reproducibility handle of a run: every random
// choice a simulation makes — the algorithm's coins, the adversary's coins
// and workload generation (random IDs, random graphs) — is derived from one key through per-subsystem one-way subseeds, so the
// streams are mutually isolated. Consuming any amount of one subsystem's
// randomness never perturbs another's: an injected fault can never shift the
// algorithm's coin sequence, which is what makes faulted runs diffable
// against their fault-free twins (and is proven by the golden tests in
// key_test.go and the zero-budget invariance suite in adversary_test.go).
type SimulationKey uint64

// NewSimulationKey wraps a master seed as a run key. The algorithm subsystem
// uses the master seed unchanged, so NewSimulationKey(s).FullSource() is
// bit-identical to the historical randomness.NewFull(s) — old seeds keep
// reproducing old runs.
func NewSimulationKey(master uint64) SimulationKey { return SimulationKey(master) }

// Subsystem names one isolated randomness stream of a run.
type Subsystem uint8

const (
	// StreamAlgorithm seeds the algorithm's randomness.Source — the coins
	// the paper's model grants the node programs.
	StreamAlgorithm Subsystem = iota
	// StreamAdversary seeds every fault-injection decision (drops, delays,
	// crashes, churn, stalls).
	StreamAdversary
	// StreamWorkload seeds instance generation: random IDs, random graphs,
	// random inputs.
	StreamWorkload

	numSubsystems
)

// subsystemSalt separates the subseeds. StreamAlgorithm's salt is unused
// (its subseed is the key itself, for backward bit-compatibility); the
// others pass through the SplitMix64 finalizer with distinct odd constants.
var subsystemSalt = [numSubsystems]uint64{
	StreamAdversary: 0xB5AD4ECEDA1CE2A9,
	StreamWorkload:  0x2545F4914F6CDD1D,
}

// Subseed derives the 64-bit seed of one subsystem. The algorithm subseed is
// the key itself — the pre-partitioning engines seeded their sources with
// the raw master seed, and keeping that stream bit-identical is the golden
// contract of the refactor. Every other subsystem applies the one-way
// SplitMix64 finalizer to the salted key, so no subsystem's seed reveals (or
// collides with) another's stream.
func (k SimulationKey) Subseed(s Subsystem) uint64 {
	if s == StreamAlgorithm {
		return uint64(k)
	}
	return prng.Hash64(uint64(k) ^ subsystemSalt[s])
}

// Derive returns the child key for a labeled unit of work — one experiment
// trial, one scenario of a sweep. The derivation (FNV-1a of the label,
// folded with the golden-ratio multiple of the parent key) is byte-identical
// to the experiments pipeline's historical RunSpec seed derivation, so
// checked-in experiment records remain reproducible.
func (k SimulationKey) Derive(label string) SimulationKey {
	h := fnv.New64a()
	io.WriteString(h, label)
	return SimulationKey(h.Sum64() ^ (uint64(k) * 0x9e3779b97f4a7c15))
}

// RNG returns a PartitionedRNG over this key with no stream yet
// instantiated.
func (k SimulationKey) RNG() *PartitionedRNG { return &PartitionedRNG{key: k} }

// FullSource returns the full-randomness source (the standard model) seeded
// from the key's algorithm subsystem. Bit-identical to
// randomness.NewFull(master) for a key built by NewSimulationKey(master).
func (k SimulationKey) FullSource() *randomness.Full {
	return randomness.NewFull(k.Subseed(StreamAlgorithm))
}

// SharedSource draws an nbits shared seed (Section 3.2's model) from the
// key's algorithm subsystem.
func (k SimulationKey) SharedSource(nbits int) *randomness.Shared {
	return randomness.NewShared(nbits, prng.New(k.Subseed(StreamAlgorithm)))
}

// SparseSource places bitsPerHolder private bits at each holder (Section
// 3.1's model), seeded from the key's algorithm subsystem.
func (k SimulationKey) SparseSource(holders []int, bitsPerHolder int) (*randomness.Sparse, error) {
	return randomness.NewSparse(holders, bitsPerHolder, k.Subseed(StreamAlgorithm))
}

// PartitionedRNG hands out the per-subsystem SplitMix64 streams of one
// SimulationKey. Streams are created lazily and independently: drawing any
// amount from one never advances, reseeds or otherwise perturbs another, so
// a consumer may drain the adversary stream dry and the algorithm stream
// still yields the exact sequence it would have in a fault-free run.
type PartitionedRNG struct {
	key     SimulationKey
	streams [numSubsystems]*prng.SplitMix64
}

// Key returns the key the streams derive from.
func (p *PartitionedRNG) Key() SimulationKey { return p.key }

// Stream returns the lazily-created generator of one subsystem.
func (p *PartitionedRNG) Stream(s Subsystem) *prng.SplitMix64 {
	if p.streams[s] == nil {
		p.streams[s] = prng.New(p.key.Subseed(s))
	}
	return p.streams[s]
}

// Algorithm returns the algorithm-coins stream. Prefer the Source
// constructors on SimulationKey for seeding node programs; this accessor
// exists for callers that need raw draws under the algorithm budget.
func (p *PartitionedRNG) Algorithm() *prng.SplitMix64 { return p.Stream(StreamAlgorithm) }

// Adversary returns the fault-injection stream.
func (p *PartitionedRNG) Adversary() *prng.SplitMix64 { return p.Stream(StreamAdversary) }

// Workload returns the instance-generation stream.
func (p *PartitionedRNG) Workload() *prng.SplitMix64 { return p.Stream(StreamWorkload) }
