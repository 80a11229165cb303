package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestStreamsDeterministic(t *testing.T) {
	a := NewStreams(42).Stream("clock/dev1")
	b := NewStreams(42).Stream("clock/dev1")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed and name must yield identical sequences")
		}
	}
}

func TestStreamsIndependentByName(t *testing.T) {
	s := NewStreams(42)
	a := s.Stream("clock/dev1")
	b := s.Stream("clock/dev2")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names look correlated: %d/100 equal draws", same)
	}
}

func TestStreamsIndependentBySeed(t *testing.T) {
	a := NewStreams(1).Stream("x")
	b := NewStreams(2).Stream("x")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds look correlated: %d/100 equal draws", same)
	}
}

func TestStreamsSeedAccessor(t *testing.T) {
	if got := NewStreams(7).Seed(); got != 7 {
		t.Fatalf("Seed() = %d, want 7", got)
	}
}

func TestDeriveSeedStable(t *testing.T) {
	if DeriveSeed(42, "seed/3") != DeriveSeed(42, "seed/3") {
		t.Fatal("DeriveSeed must be a pure function")
	}
	if DeriveSeed(42, "seed/3") == DeriveSeed(42, "seed/4") {
		t.Fatal("different names must derive different seeds")
	}
	if DeriveSeed(1, "seed/3") == DeriveSeed(2, "seed/3") {
		t.Fatal("different masters must derive different seeds")
	}
}

func TestDeriveMatchesFreshStreams(t *testing.T) {
	// A run's streams, seeded by DeriveSeed from the campaign seed and the
	// run name, must reproduce from those two alone and must not correlate
	// with the campaign's own streams — the properties that make parallel
	// campaigns bit-identical to sequential ones.
	a := NewStreams(DeriveSeed(42, "run/interval/125ms")).Stream("osc/dev1")
	b := NewStreams(DeriveSeed(42, "run/interval/125ms")).Stream("osc/dev1")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("derived streams do not reproduce")
		}
	}
	run := NewStreams(DeriveSeed(42, "run/0")).Stream("osc/dev1")
	own := NewStreams(42).Stream("osc/dev1")
	same := 0
	for i := 0; i < 100; i++ {
		if run.Float64() == own.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived run streams correlate with the campaign's own: %d/100", same)
	}
}

// TestStreamRestoreAfterUint64 pins the position accounting of Uint64: it
// takes one step of the generator, like Int63, so a snapshot taken right
// after a Uint64 draw must restore to exactly that point.
func TestStreamRestoreAfterUint64(t *testing.T) {
	s := NewStreams(3)
	r := s.Stream("x")
	r.Uint64()
	snap := s.Snapshot()
	want := [3]int64{r.Int63(), r.Int63(), r.Int63()}
	s.Restore(snap)
	got := [3]int64{r.Int63(), r.Int63(), r.Int63()}
	if got != want {
		t.Fatalf("after Restore got %v, want %v", got, want)
	}
}

// refAt returns math/rand's stock generator for seed advanced by pos steps.
func refAt(seed int64, pos uint64) *rand.Rand {
	src := rand.NewSource(seed).(rand.Source64)
	for i := uint64(0); i < pos; i++ {
		src.Uint64()
	}
	return rand.New(src)
}

// FuzzStreamSeek mixes draws of every kind the simulator makes with
// snapshots and restores in both directions, and checks every draw against
// math/rand's own generator at the same position.
func FuzzStreamSeek(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(-7), []byte{5, 5, 1, 6, 2, 2, 7, 0, 3})
	f.Add(int64(math.MaxInt32), []byte{1, 1, 1, 5, 0, 0, 6, 7, 7})
	f.Add(int64(math.MaxInt32+12345), []byte{3, 4, 5, 2, 6, 1, 7, 5, 6})
	f.Add(int64(math.MinInt64), []byte{4, 4, 4, 4, 5, 7, 6, 6})
	f.Add(int64(math.MaxInt64), []byte{1, 0, 5, 2, 3, 6, 0, 1})
	f.Add(int64(89482311), []byte{0, 0, 5, 0, 6})          // math/rand seeds 0 as this
	f.Add(int64(-math.MaxInt32), []byte{2, 5, 3, 3, 6, 2}) // reduces to 0 mod 2³¹−1
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		s := NewStreams(0)
		r := new(Stream)
		r.reset(seed)
		s.streams = append(s.streams, r)
		var snaps []any
		var at []uint64 // position at each snapshot
		for i, op := range ops {
			switch op % 8 {
			case 5:
				snaps = append(snaps, s.Snapshot())
				at = append(at, r.pos)
				continue
			case 6, 7:
				if len(snaps) == 0 {
					continue
				}
				k := int(op/8) % len(snaps)
				s.Restore(snaps[k])
				if r.pos != at[k] {
					t.Fatalf("op %d: Restore left position %d, snapshot was at %d", i, r.pos, at[k])
				}
				continue
			}
			ref := refAt(seed, r.pos)
			var got, want uint64
			switch op % 8 {
			case 0:
				got, want = uint64(r.Int63()), uint64(ref.Int63())
			case 1:
				got, want = r.Uint64(), ref.Uint64()
			case 2:
				got, want = math.Float64bits(r.Float64()), math.Float64bits(ref.Float64())
			case 3:
				got, want = math.Float64bits(r.NormFloat64()), math.Float64bits(ref.NormFloat64())
			case 4:
				n := 1 + int(op/8)*1000003
				got, want = uint64(r.Intn(n)), uint64(ref.Intn(n))
			}
			if got != want {
				t.Fatalf("op %d (%d) at seed %d: got %#x, want %#x", i, op%8, seed, got, want)
			}
		}
	})
}

// TestStreamSeedMatchesStock checks the direct seeding against math/rand's
// own: for the edge seeds of its mod-(2³¹−1) reduction and 1,000 drawn
// ones, a stream's first 2·607 draws (every table word used twice) must be
// the stock source's.
func TestStreamSeedMatchesStock(t *testing.T) {
	seeds := []int64{0, 1, -1, math.MaxInt32, -math.MaxInt32, 2 * math.MaxInt32,
		math.MinInt64, math.MaxInt64, 89482311}
	pick := rand.New(rand.NewSource(20231012)) //nolint:gosec // test seeds
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	var src source
	for _, seed := range seeds {
		src.reset(seed)
		stock := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2*rngLen; i++ {
			if got, want := src.Uint64(), stock.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, got, want)
			}
		}
	}
}

// TestStreamDrawsMatchStock checks Stream's copies of math/rand's draw
// algorithms against math/rand's own: for the edge seeds and 100 drawn
// ones, interleaved draws of every kind (over 10⁶ in all) must equal those
// of rand.New(rand.NewSource(seed)) bit for bit. The Int63n and Intn bounds
// include powers of two (the mask path), bounds that reject about half of
// all draws (the rejection loops), and an Intn bound above 2³¹−1 (its
// Int63n path); NormFloat64 must reach its base strip's tail.
func TestStreamDrawsMatchStock(t *testing.T) {
	seeds := []int64{0, 1, -1, math.MaxInt32, math.MinInt64, math.MaxInt64}
	pick := rand.New(rand.NewSource(20261020)) //nolint:gosec // test seeds
	for i := 0; i < 100; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	n63 := []int64{1, 1 << 40, 1000003, 1<<62 + 1, math.MaxInt64}
	nInt := []int{1, 1 << 20, 999983, 1<<30 + 1, math.MaxInt32, 1<<40 + 7}
	const drawsPerSeed = 10000
	tail := 0
	for _, seed := range seeds {
		got := new(Stream)
		got.reset(seed)
		want := rand.New(rand.NewSource(seed)) //nolint:gosec // reference
		for i := 0; i < drawsPerSeed; i++ {
			var g, w uint64
			switch op := pick.Intn(5); op {
			case 0:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 1:
				x := got.NormFloat64()
				if math.Abs(x) > rn {
					tail++
				}
				g, w = math.Float64bits(x), math.Float64bits(want.NormFloat64())
			case 2:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			case 3:
				n := n63[pick.Intn(len(n63))]
				g, w = uint64(got.Int63n(n)), uint64(want.Int63n(n))
			case 4:
				n := nInt[pick.Intn(len(nInt))]
				g, w = uint64(got.Intn(n)), uint64(want.Intn(n))
			}
			if g != w {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, g, w)
			}
		}
	}
	if tail == 0 {
		t.Fatal("no NormFloat64 draw reached the base strip's tail")
	}
	t.Logf("%d draws over %d seeds; %d NormFloat64 tail draws", len(seeds)*drawsPerSeed, len(seeds), tail)
}
