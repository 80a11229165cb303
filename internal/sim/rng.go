package sim

import (
	"hash/fnv"
	"math/rand"
	"sync"
)

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

// Uint64 takes one step and returns the table word it wrote.
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

// Int63 is math/rand's Int63: one step's low 63 bits.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// reset sets s to position 0 of seed's stock math/rand sequence.
func (s *source) reset(seed int64) { s.seedWith(seed, rngCooked()) }

// seedWith is math/rand's rngSource.Seed with the seeding table passed in:
// it reduces seed mod 2³¹−1 (0 becomes 89482311), discards 20 outputs of
// the seeding LCG x ↦ 48271·x mod (2³¹−1), and sets each table word to the
// next three, x₁<<40 ^ x₂<<20 ^ x₃, XOR its cooked word. Output n is
// seed·48271ⁿ, so each is one multiply by a precomputed power.
func (s *source) seedWith(seed int64, cooked *[rngLen]int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		x1 := lcgMul(x, lcgPowers[3*i])
		x2 := lcgMul(x, lcgPowers[3*i+1])
		x3 := lcgMul(x, lcgPowers[3*i+2])
		s.vec[i] = int64(x1<<40^x2<<20^x3) ^ cooked[i]
	}
	s.tap, s.feed, s.pos = 0, rngLen-rngTap, 0
}

// lcgMod is the modulus of math/rand's seeding LCG, the Mersenne prime
// 2³¹−1.
const lcgMod = 1<<31 - 1

// lcgPowers holds 48271^(21+j) mod (2³¹−1) for j < 3·rngLen: the factors
// that take a reduced seed to the LCG outputs seedWith keeps.
var lcgPowers = func() (pw [3 * rngLen]uint64) {
	x := uint64(1)
	for i := 0; i < 20; i++ {
		x = lcgMul(x, 48271)
	}
	for j := range pw {
		x = lcgMul(x, 48271)
		pw[j] = x
	}
	return pw
}()

// lcgMul is x·y mod (2³¹−1) for x, y < 2³¹−1, without math/rand's
// division: 2³¹ ≡ 1, so the product (below 2⁶²) folds to
// p mod 2³¹ + p>>31, which is below 2·(2³¹−1) and needs at most one
// subtraction.
func lcgMul(x, y uint64) uint64 {
	p := x * y
	p = p&lcgMod + p>>31
	if p >= lcgMod {
		p -= lcgMod
	}
	return p
}

// rngCooked recovers math/rand's seeding table (its rngCooked) from one
// stock source, once. Over its first rngLen steps the stock generator
// writes every table word exactly once (feed visits each index), so its
// outputs 1..rngLen are the whole table at position rngLen, output k at
// index (rngLen−rngTap−k) mod rngLen with tap and feed back at their seeded
// values; stepping back rngLen times recovers the seeded table, and XOR
// with the same seed's LCG words leaves the cooked one. The stock table is
// thereby used, never copied, and always that of the running Go.
var rngCooked = sync.OnceValue(func() *[rngLen]int64 {
	const seed = 1
	stock := rand.NewSource(seed).(rand.Source64) //nolint:gosec // simulation, not crypto
	var seeded, lcg source
	for k := 1; k <= rngLen; k++ {
		i := rngLen - rngTap - k
		if i < 0 {
			i += rngLen
		}
		seeded.vec[i] = int64(stock.Uint64())
	}
	seeded.tap, seeded.feed, seeded.pos = 0, rngLen-rngTap, rngLen
	seeded.seek(0)
	lcg.seedWith(seed, new([rngLen]int64))
	for i := range seeded.vec {
		seeded.vec[i] ^= lcg.vec[i]
	}
	return &seeded.vec
})

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

// Stream is one named random stream: the stock math/rand sequence of its
// derived seed, drawn through math/rand's own algorithms (Float64,
// NormFloat64, Int63n, Intn) on the in-repo source, with no interface
// dispatch on the draw path. Each method returns exactly what the same
// method of rand.New(rand.NewSource(seed)) returns at the same position,
// and takes the same number of source steps.
type Stream struct {
	source
}

// Float64 returns a float64 in [0, 1), as math/rand's Rand.Float64 does:
// Int63 scaled by 2⁻⁶³, redrawn in the 1-in-2⁵³ case that rounds to 1.
func (r *Stream) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int63n returns an int64 in [0, n), as math/rand's Rand.Int63n does: a
// mask when n is a power of two, else rejection of the top partial range
// and a modulus. It panics if n <= 0.
func (r *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// int31n is math/rand's Rand.Int31n, which Intn uses below 2³¹; it draws
// Rand.Int31, the top 31 of Int63's bits.
func (r *Stream) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(r.Int63()>>32) & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(r.Int63() >> 32)
	for v > max {
		v = int32(r.Int63() >> 32)
	}
	return v % n
}

// Intn returns an int in [0, n), as math/rand's Rand.Intn does: through
// Int31n for n below 2³¹, else through Int63n. It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
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
	streams []*Stream
}

// NewStreams returns a stream factory for the given master seed.
func NewStreams(seed int64) *Streams {
	return &Streams{seed: seed}
}

// Seed reports the master seed.
func (s *Streams) Seed() int64 { return s.seed }

// Stream returns the deterministic random stream of the named component.
// Calling Stream twice with the same name returns two independent streams
// with identical sequences; components must create their stream once and
// keep it. The sequence is the stock math/rand one for the derived seed.
func (s *Streams) Stream(name string) *Stream {
	st := new(Stream)
	st.reset(DeriveSeed(s.seed, name))
	s.streams = append(s.streams, st)
	return st
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
	sn := &StreamsSnapshot{positions: make([]uint64, len(s.streams))}
	for i, st := range s.streams {
		sn.positions[i] = st.pos
	}
	return sn
}

// Restore seeks every stream captured by the snapshot back (or forward) to
// its recorded position, leaving the *Stream instances components hold
// valid and positioned exactly where they were; the cost is the number of
// draws between the two positions. Streams created after the snapshot are
// dropped from the registry: their owners (post-boundary machinery of a
// previous fork) are discarded with them, and a re-attached component
// re-derives the same stream from its name alone.
func (s *Streams) Restore(snap any) {
	sn := snap.(*StreamsSnapshot)
	if len(sn.positions) > len(s.streams) {
		panic("sim: Streams.Restore: snapshot from a different Streams")
	}
	for i, pos := range sn.positions {
		s.streams[i].seek(pos)
	}
	s.streams = s.streams[:len(sn.positions)]
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
