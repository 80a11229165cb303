package sim

import (
	"reflect"
	"testing"
	"time"
)

// pipe is a minimal one-directional cross-shard Boundary: sends queue in an
// outbox and commit as deliveries into the destination shard after delay.
type pipe struct {
	delay time.Duration
	dst   *Scheduler
	out   []Deferred
	recv  *[]Time // delivery instants, in callback order

	markDirty, invalidate func() // installed by NewFabric
}

func (p *pipe) MinDelay() time.Duration { return p.delay }

func (p *pipe) BindFabric(markDirty, invalidate func()) {
	p.markDirty, p.invalidate = markDirty, invalidate
}

func (p *pipe) AppendDeferred(buf []Deferred) []Deferred {
	buf = append(buf, p.out...)
	p.out = p.out[:0]
	return buf
}

func (p *pipe) CommitDeferred(dir int, payload any, key1, key2 Time) {
	p.dst.ScheduleKeyedArg(key1.Add(p.delay), key1, key2, func(any) {
		*p.recv = append(*p.recv, p.dst.Now())
	}, payload)
}

// send captures the sender's causal key at the current instant and marks
// the pipe dirty on the first send since the last flush, like a boundary
// netsim link does.
func (p *pipe) send(src *Scheduler, payload any) {
	if len(p.out) == 0 {
		p.markDirty()
	}
	_, cause, prev := src.SchedKeys()
	p.out = append(p.out, Deferred{
		Key1: src.Now(), Key2: cause, Key3: prev, Ord: src.NextDeferOrd(),
		Payload: payload, By: p,
	})
}

// fabricFixture wires two shards exchanging pings in both directions plus a
// control scheduler, and returns the delivery traces.
func runPingFabric(t *testing.T, pings int, delay time.Duration) (recv01, recv10, ctl []Time, stats FabricStats) {
	t.Helper()
	s0, s1, control := NewScheduler(), NewScheduler(), NewScheduler()
	p01 := &pipe{delay: delay, dst: s1, recv: &recv01}
	p10 := &pipe{delay: delay, dst: s0, recv: &recv10}

	// Each shard sends one ping per 100µs, with local busywork between, so
	// windows regularly have both shards busy (parallel runWindow path).
	for i := 0; i < pings; i++ {
		at := Time(i * 100_000)
		s0.At(at, func() { p01.send(s0, i) })
		s1.At(at.Add(50*time.Microsecond), func() { p10.send(s1, i) })
		s0.At(at.Add(10*time.Microsecond), func() {})
		s1.At(at.Add(10*time.Microsecond), func() {})
	}
	// A control event in the middle of the run: it must observe both shard
	// clocks at its own instant (events < ctlAt executed, events at ctlAt
	// still pending), exactly like a single-scheduler run.
	ctlAt := Time(pings * 50_000)
	control.At(ctlAt, func() {
		ctl = append(ctl, control.Now())
		if s0.Now() != ctlAt || s1.Now() != ctlAt {
			t.Errorf("control at %v saw shards at %v/%v, want both at %v",
				ctlAt, s0.Now(), s1.Now(), ctlAt)
		}
	})

	f := NewFabric([]*Scheduler{s0, s1}, control, []Boundary{p01, p10})
	if err := f.RunFor(time.Duration(pings) * 150 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	return recv01, recv10, ctl, f.Stats()
}

func TestFabricDeliversAcrossShards(t *testing.T) {
	const pings = 40
	const delay = 30 * time.Microsecond
	recv01, recv10, ctl, stats := runPingFabric(t, pings, delay)

	if len(recv01) != pings || len(recv10) != pings {
		t.Fatalf("deliveries: got %d/%d, want %d each", len(recv01), len(recv10), pings)
	}
	if len(ctl) != 1 {
		t.Fatalf("control events fired: %d, want 1", len(ctl))
	}
	for i, at := range recv01 {
		want := Time(i * 100_000).Add(delay)
		if at != want {
			t.Fatalf("delivery %d at %v, want send+delay = %v", i, at, want)
		}
	}
	if stats.Windows == 0 || stats.ControlRounds == 0 {
		t.Fatalf("stats not advancing: %+v", stats)
	}
	if stats.Committed != 2*pings {
		t.Fatalf("committed %d cross-shard sends, want %d", stats.Committed, 2*pings)
	}
	if stats.LookaheadNS != int64(delay) {
		t.Fatalf("lookahead %dns, want min boundary delay %dns", stats.LookaheadNS, int64(delay))
	}
}

// TestFabricDeterministicReplay pins run-to-run determinism of the fabric
// machinery itself: two identical fabrics produce identical delivery traces.
func TestFabricDeterministicReplay(t *testing.T) {
	a01, a10, _, _ := runPingFabric(t, 25, 40*time.Microsecond)
	b01, b10, _, _ := runPingFabric(t, 25, 40*time.Microsecond)
	if !reflect.DeepEqual(a01, b01) || !reflect.DeepEqual(a10, b10) {
		t.Fatal("identical fabrics produced different delivery traces")
	}
}

// TestFabricCommitOrder pins the barrier flush order: deferred sends from
// multiple boundaries commit sorted by (Key1, Key2, Key3, Ord, Rank, Dir),
// not by drain order. Key3 (the sending event's own cause) orders key-tied
// senders the way their shared heap would have; Ord — the source shard's
// issuance ordinal — then dominates Rank, so two same-instant sends issued
// by one callback through different boundary links commit in issuance
// order, not link registration order.
func TestFabricCommitOrder(t *testing.T) {
	d := []Deferred{
		{Key1: 200, Key2: 10, Key3: 5, Ord: 1, Rank: 0, Payload: 0},
		{Key1: 100, Key2: 30, Key3: 5, Ord: 2, Rank: 1, Payload: 1},
		{Key1: 100, Key2: 20, Key3: 9, Ord: 1, Rank: 0, Payload: 2},
		{Key1: 100, Key2: 20, Key3: 5, Ord: 5, Rank: 0, Payload: 3},
		{Key1: 100, Key2: 20, Key3: 5, Ord: 3, Rank: 2, Dir: 1, Payload: 4},
		{Key1: 100, Key2: 20, Key3: 5, Ord: 3, Rank: 2, Dir: 0, Payload: 5},
		{Key1: 100, Key2: 20, Key3: 5, Ord: 3, Rank: 1, Payload: 6},
	}
	sortDeferred(d)
	var got []int
	for i := range d {
		got = append(got, d[i].Payload.(int))
	}
	want := []int{6, 5, 4, 3, 2, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("commit order %v, want %v", got, want)
	}
}
