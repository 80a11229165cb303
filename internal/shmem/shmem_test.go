package shmem

import (
	"testing"
	"testing/quick"

	"gptpfta/internal/gptp"
	"gptpfta/internal/servo"
)

func newFT() *FTSHMEM {
	return NewFTSHMEM([]int{1, 2, 3, 4}, 375e6, servo.NewPI(servo.Config{}))
}

func TestFTSHMEMStoreAndReadings(t *testing.T) {
	s := newFT()
	s.StoreOffset(gptp.OffsetSample{Domain: 2, OffsetNS: -42}, 1000)
	r := s.AppendReadings(nil, 2000)
	if len(r) != 4 {
		t.Fatalf("readings len = %d, want 4", len(r))
	}
	if !r[1].Fresh || r[1].OffsetNS != -42 || r[1].Domain != 2 {
		t.Fatalf("slot 1 = %+v, want fresh domain-2 offset -42", r[1])
	}
	for _, i := range []int{0, 2, 3} {
		if r[i].Fresh {
			t.Fatalf("slot %d fresh without a store", i)
		}
	}
}

func TestFTSHMEMUnknownDomainIgnored(t *testing.T) {
	s := newFT()
	s.StoreOffset(gptp.OffsetSample{Domain: 99, OffsetNS: 1}, 0)
	for _, r := range s.AppendReadings(nil, 1) {
		if r.Fresh {
			t.Fatal("unknown domain stored")
		}
	}
}

func TestFTSHMEMStaleness(t *testing.T) {
	s := NewFTSHMEM([]int{1, 2}, 375e6, servo.NewPI(servo.Config{})) // stale after 375 ms
	s.StoreOffset(gptp.OffsetSample{Domain: 1, OffsetNS: 5}, 0)
	if r := s.AppendReadings(nil, 300e6); !r[0].Fresh {
		t.Fatal("reading stale too early")
	}
	if r := s.AppendReadings(nil, 400e6); r[0].Fresh {
		t.Fatal("reading fresh after staleness window (fail-silent GM must age out)")
	}
}

func TestFTSHMEMStoreOwnDomain(t *testing.T) {
	s := newFT()
	s.StoreOwnDomain(3, 100)
	r := s.AppendReadings(nil, 101)
	if !r[2].Fresh || r[2].OffsetNS != 0 {
		t.Fatalf("own-domain slot = %+v, want fresh zero offset", r[2])
	}
}

func TestFTSHMEMAggregationGate(t *testing.T) {
	s := newFT()
	const interval = 125e6
	if !s.TryAcquireAdjust(1000, interval) {
		t.Fatal("first acquisition must succeed")
	}
	// Every other instance in the same interval loses.
	for i := 0; i < 3; i++ {
		if s.TryAcquireAdjust(1000+float64(i), interval) {
			t.Fatal("second acquisition in the same interval succeeded")
		}
	}
	if s.TryAcquireAdjust(1000+interval-1, interval) {
		t.Fatal("acquisition just before the boundary succeeded")
	}
	if !s.TryAcquireAdjust(1000+interval, interval) {
		t.Fatal("acquisition at the boundary failed")
	}
	last, ok := s.AdjustLast()
	if !ok || last != 1000+interval {
		t.Fatalf("AdjustLast = %v/%v, want 1000+interval", last, ok)
	}
}

// TestFTSHMEMGateExactlyOneWinner is the paper's invariant: per interval,
// exactly one of the M instances feeds the shared PI controller.
func TestFTSHMEMGateExactlyOneWinner(t *testing.T) {
	prop := func(jitters [4]uint8) bool {
		s := newFT()
		const interval = 125e6
		_ = s.TryAcquireAdjust(0, interval) // prime the gate at t=0
		for interval1 := 1; interval1 <= 10; interval1++ {
			base := float64(interval1) * interval
			winners := 0
			for _, j := range jitters {
				if s.TryAcquireAdjust(base+float64(j), interval) {
					winners++
				}
			}
			if winners != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFTSHMEMFlags(t *testing.T) {
	s := newFT()
	s.SetFlags([]bool{true, false, true, true})
	got := s.Flags()
	want := []bool{true, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flags = %v, want %v", got, want)
		}
	}
}

func TestFTSHMEMReset(t *testing.T) {
	s := newFT()
	s.StoreOffset(gptp.OffsetSample{Domain: 1, OffsetNS: 5}, 0)
	_ = s.TryAcquireAdjust(0, 125e6)
	s.Servo().Sample(100, 0)
	s.Servo().Sample(200, 125e6)
	s.Reset()
	for _, r := range s.AppendReadings(nil, 1) {
		if r.Fresh {
			t.Fatal("reset left fresh readings")
		}
	}
	if _, ok := s.AdjustLast(); ok {
		t.Fatal("reset left the aggregation gate primed")
	}
	if s.Servo().State() != servo.StateUnlocked {
		t.Fatal("reset left the servo locked")
	}
}

func TestClockParamsSyncTime(t *testing.T) {
	p := ClockParams{TSCRef: 1000, SyncRef: 5000, Ratio: 1.0 + 5e-6}
	got := p.SyncTimeAt(2000)
	want := 5000 + 1000*(1+5e-6)
	if got != want {
		t.Fatalf("SyncTimeAt = %v, want %v", got, want)
	}
}

func TestSTSHMEMPublishAndRead(t *testing.T) {
	s := NewSTSHMEM(2)
	if _, ok := s.SyncTimeAt(0); ok {
		t.Fatal("unpublished region returned a time")
	}
	s.Publish(0, ClockParams{TSCRef: 0, SyncRef: 100, Ratio: 1})
	v, ok := s.SyncTimeAt(50)
	if !ok || v != 150 {
		t.Fatalf("SyncTimeAt = %v/%v, want 150/true", v, ok)
	}
	if s.Slot(0).Seq != 1 {
		t.Fatalf("Seq = %d, want 1", s.Slot(0).Seq)
	}
	s.Publish(0, ClockParams{TSCRef: 0, SyncRef: 200, Ratio: 1})
	if s.Slot(0).Seq != 2 {
		t.Fatalf("Seq = %d after second publish, want 2", s.Slot(0).Seq)
	}
}

func TestSTSHMEMFailover(t *testing.T) {
	s := NewSTSHMEM(2)
	s.Publish(0, ClockParams{SyncRef: 100, Ratio: 1})
	s.Publish(1, ClockParams{SyncRef: 100.5, Ratio: 1})
	v0, _ := s.SyncTimeAt(10)
	s.SetActive(1)
	v1, ok := s.SyncTimeAt(10)
	if !ok {
		t.Fatal("failover slot not valid")
	}
	if v1-v0 != 0.5 {
		t.Fatalf("takeover discontinuity = %v, want 0.5 (slot parameter difference)", v1-v0)
	}
	if s.Active() != 1 {
		t.Fatalf("Active = %d, want 1", s.Active())
	}
}

func TestSTSHMEMInvalidate(t *testing.T) {
	s := NewSTSHMEM(2)
	s.Publish(0, ClockParams{SyncRef: 1, Ratio: 1})
	s.Invalidate(0)
	if _, ok := s.SyncTimeAt(0); ok {
		t.Fatal("invalidated active slot still served time")
	}
	if s.Slot(0).Valid {
		t.Fatal("slot valid after invalidate")
	}
}

func TestSTSHMEMBoundsChecked(t *testing.T) {
	s := NewSTSHMEM(1)
	s.Publish(5, ClockParams{}) // must not panic
	s.SetActive(5)              // ignored
	if s.Active() != 0 {
		t.Fatal("out-of-range SetActive took effect")
	}
	if got := s.Slot(-1); got.Valid {
		t.Fatal("out-of-range Slot returned valid params")
	}
	if s.NumSlots() != 1 {
		t.Fatal("NumSlots wrong")
	}
	if len(s.Slots()) != 1 {
		t.Fatal("Slots wrong length")
	}
}
