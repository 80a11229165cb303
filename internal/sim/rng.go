package sim

import (
	"hash/fnv"
	"math/rand"
	"sync"
)

// RNG is the interface consumed by simulated components that need
// randomness. *rand.Rand satisfies it.
type RNG interface {
	Float64() float64
	NormFloat64() float64
	Int63n(n int64) int64
	Intn(n int) int
}

// Parameters of math/rand's additive lagged Fibonacci generator.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// source is math/rand's stock generator (rngSource) as an in-repo value
// type with a position counter: the same 607-word table and the same
// tap/feed step, so it yields the stock sequence bit for bit, and Int63 and
// Uint64 each take exactly one step. The step vec[feed] += vec[tap] reads a
// word it does not write (tap ≠ feed always), so it can be undone exactly:
// seek moves the source to any position, backwards or forwards, in as many
// steps as the distance. That is what makes a warm-start Restore cost the
// draws made since its snapshot rather than since the seed.
type source struct {
	tap, feed int
	vec       [rngLen]int64
	pos       uint64 // steps taken since the seed
}

func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	s.pos++
	return uint64(x)
}

func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Seed sets s to position 0 of seed's stock math/rand sequence.
func (s *source) Seed(seed int64) {
	seeder := seeders.Get().(rand.Source64)
	s.load(seeder, seed)
	seeders.Put(seeder)
}

// seeders holds stock math/rand sources for load to re-seed, so seeding a
// stream allocates nothing and no Streams keeps a seeder. Seeding
// overwrites a source's whole state, so reuse cannot leak one stream's
// state into another.
var seeders = sync.Pool{New: func() any { return rand.NewSource(0) }} //nolint:gosec // simulation, not crypto

// load sets s to position 0 of seed's stock sequence. seeder is any stock
// math/rand source; load re-seeds it. Over its first rngLen steps the stock
// generator writes every table word exactly once (feed visits each index),
// so its outputs 1..rngLen are the whole table at position rngLen, output k
// at index (rngLen−rngTap−k) mod rngLen with tap and feed back at their
// seeded values; stepping back rngLen times then recovers the seeded table.
// The stock seeding table (rngCooked) is thereby used, never copied.
func (s *source) load(seeder rand.Source64, seed int64) {
	seeder.Seed(seed)
	for k := 1; k <= rngLen; k++ {
		i := rngLen - rngTap - k
		if i < 0 {
			i += rngLen
		}
		s.vec[i] = int64(seeder.Uint64())
	}
	s.tap, s.feed, s.pos = 0, rngLen-rngTap, rngLen
	s.seek(0)
}

// back undoes the last step.
func (s *source) back() {
	s.vec[s.feed] -= s.vec[s.tap]
	s.tap++
	if s.tap == rngLen {
		s.tap = 0
	}
	s.feed++
	if s.feed == rngLen {
		s.feed = 0
	}
	s.pos--
}

// seek moves the source to position pos, stepping back or forward.
func (s *source) seek(pos uint64) {
	for s.pos > pos {
		s.back()
	}
	for s.pos < pos {
		s.Uint64()
	}
}

// Streams derives independent, named random streams from one master seed so
// that adding a consumer of randomness in one component does not perturb any
// other component's stream. Every experiment in this repository is
// reproducible from its master seed alone.
//
// Streams also keeps a registry of every source it has handed out, so a
// warm-state snapshot can capture and later restore the exact position of
// every stream (see Snapshot/Restore and DESIGN.md, "Warm-state
// snapshots").
type Streams struct {
	seed    int64
	sources []*source
}

// NewStreams returns a stream factory for the given master seed.
func NewStreams(seed int64) *Streams {
	return &Streams{seed: seed}
}

// Seed reports the master seed.
func (s *Streams) Seed() int64 { return s.seed }

// Stream returns a deterministic RNG for the named component. Calling
// Stream twice with the same name returns two independent generators with
// identical sequences; components must create their stream once and keep it.
// The sequence is the stock math/rand one for the derived seed.
func (s *Streams) Stream(name string) *rand.Rand {
	src := new(source)
	src.Seed(DeriveSeed(s.seed, name))
	s.sources = append(s.sources, src)
	return rand.New(src) //nolint:gosec // simulation, not crypto
}

// StreamsSnapshot captures the position of every stream handed out so far:
// one uint64 per stream. It is immutable once taken.
type StreamsSnapshot struct {
	positions []uint64
}

// Snapshot records the current position of every stream created so far.
// Streams created after the snapshot belong to components attached after
// the fork boundary and are deliberately not captured.
func (s *Streams) Snapshot() any {
	sn := &StreamsSnapshot{positions: make([]uint64, len(s.sources))}
	for i, src := range s.sources {
		sn.positions[i] = src.pos
	}
	return sn
}

// Restore seeks every stream captured by the snapshot back (or forward) to
// its recorded position, leaving the *rand.Rand instances components hold
// valid and positioned exactly where they were; the cost is the number of
// draws between the two positions. Streams created after the snapshot are
// dropped from the registry: their owners (post-boundary machinery of a
// previous fork) are discarded with them, and a re-attached component
// re-derives the same stream from its name alone.
func (s *Streams) Restore(snap any) {
	sn := snap.(*StreamsSnapshot)
	if len(sn.positions) > len(s.sources) {
		panic("sim: Streams.Restore: snapshot from a different Streams")
	}
	for i, pos := range sn.positions {
		s.sources[i].seek(pos)
	}
	s.sources = s.sources[:len(sn.positions)]
}

// DeriveSeed maps a master seed and a name to a stable derived seed; it is
// the derivation behind Stream. A campaign that fans out into independent
// runs (one per seed, sweep point or scenario variant) seeds each run's
// NewStreams with DeriveSeed(campaign seed, run name), so the runs are
// mutually decorrelated, independent of the campaign's own streams, and
// each reproducible from the campaign seed plus the run name alone.
func DeriveSeed(master int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return splitmix64(int64(h.Sum64()) ^ master)
}

// splitmix64 scrambles the derived seed so that structurally similar names
// do not yield correlated rand.Source states.
func splitmix64(x int64) int64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}
