package gptp

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// The seq rings of Slave and Relay are checked against the map-keyed
// bookkeeping they replaced, kept here as the reference model: a Sync
// stores its entry, then drops every entry more than 4 sequence numbers
// behind it (entries ahead of an out-of-order Sync included); a FollowUp
// takes its entry out.

// refWindow is the reference model of a pending window.
type refWindow[V any] struct{ m map[uint16]V }

func newRefWindow[V any]() *refWindow[V] { return &refWindow[V]{m: map[uint16]V{}} }

func (w *refWindow[V]) add(seq uint16, v V) {
	w.m[seq] = v
	for k := range w.m {
		if seqDelta(seq, k) > 4 {
			delete(w.m, k)
		}
	}
}

// live returns the ring's live entries as a map, for comparison with the
// reference.
func (r *seqRing[V]) live() map[uint16]V {
	m := map[uint16]V{}
	for _, e := range r {
		if e.ok {
			m[e.seq] = e.v
		}
	}
	return m
}

// FuzzSeqWindow drives a ring and the reference with the same operations
// — adds (in order, duplicated, behind, ahead, across the 65535→0 wrap),
// lookups and removals — and requires identical contents after each.
func FuzzSeqWindow(f *testing.F) {
	f.Add(uint16(65530), []byte{0, 1, 0, 2, 0, 3, 5, 1, 9, 0, 13, 0, 2, 1, 6, 2})
	f.Add(uint16(0), []byte{0, 0, 0, 0, 8, 255, 4, 250, 0, 3, 1, 7})
	f.Add(uint16(100), []byte{0, 7, 0, 15, 0, 1, 1, 1, 2, 14})
	f.Fuzz(func(t *testing.T, base uint16, ops []byte) {
		var ring seqRing[int]
		ref := newRefWindow[int]()
		cur := base
		for i := 0; i+1 < len(ops); i += 2 {
			// The low bits pick the operation, the next byte a signed
			// offset from the newest sequence number.
			seq := cur + uint16(int8(ops[i+1]))
			switch ops[i] % 4 {
			case 0, 3:
				*ring.add(seq) = i
				ref.add(seq, i)
				cur = seq
			case 1:
				got := ring.get(seq)
				want, ok := ref.m[seq]
				if (got != nil) != ok || (ok && *got != want) {
					t.Fatalf("op %d: get(%d) = %v, reference %v/%v", i/2, seq, got, want, ok)
				}
			case 2:
				ring.remove(seq)
				delete(ref.m, seq)
			}
			if got := ring.live(); !reflect.DeepEqual(got, ref.m) {
				t.Fatalf("op %d (seq %d): ring holds %v, reference %v", i/2, seq, got, ref.m)
			}
		}
	})
}

// seqOp is one step of a random two-step message stream.
type seqOp struct {
	followUp bool
	seq      uint16
}

// randomSeqStream draws n Syncs and FollowUps around a sequence counter
// starting at base: in-order Syncs, duplicates, Syncs behind the newest
// (out of order) and ahead of it (drops), and FollowUps for recent,
// stale and never-sent sequence numbers.
func randomSeqStream(rng *rand.Rand, base uint16, n int) []seqOp {
	ops := make([]seqOp, 0, n)
	cur := base
	for len(ops) < n {
		switch r := rng.Intn(10); {
		case r < 4:
			cur++
			ops = append(ops, seqOp{seq: cur})
		case r < 5:
			ops = append(ops, seqOp{seq: cur})
		case r < 6:
			ops = append(ops, seqOp{seq: cur - uint16(1+rng.Intn(7))})
		case r < 7:
			cur += uint16(2 + rng.Intn(6))
			ops = append(ops, seqOp{seq: cur})
		default:
			ops = append(ops, seqOp{followUp: true, seq: cur - uint16(rng.Intn(9))})
		}
	}
	return ops
}

// refSlave is the map-keyed slave the seq ring replaced.
type refSlave struct {
	pending *refWindow[float64]
	out     []OffsetSample
}

func (s *refSlave) handleSync(m *Sync, rxTS float64) { s.pending.add(m.Seq, rxTS) }

func (s *refSlave) handleFollowUp(m *FollowUp) {
	rxTS, ok := s.pending.m[m.Seq]
	if !ok {
		return
	}
	delete(s.pending.m, m.Seq)
	s.out = append(s.out, OffsetSample{
		Domain: m.Domain, OffsetNS: rxTS - m.PreciseOrigin - m.Correction, PreciseOrigin: m.PreciseOrigin,
		Correction: m.Correction, RxTS: rxTS, RateRatio: m.RateRatio, GMIdentity: m.GMIdentity, Seq: m.Seq,
	})
}

// TestSlaveMatchesMapReference feeds a Slave and the map-keyed reference
// the same random streams and requires the same offsets, in order.
func TestSlaveMatchesMapReference(t *testing.T) {
	for _, base := range []uint16{0, 1000, 65500, 65533} {
		rng := rand.New(rand.NewSource(int64(base) + 1))
		var got []OffsetSample
		ld := NewLinkDelay("cl", sim.NewScheduler(), nil, nil, LinkDelayConfig{})
		s := NewSlave(0, ld, func(o OffsetSample) { got = append(got, o) })
		ref := &refSlave{pending: newRefWindow[float64]()}
		for i, op := range randomSeqStream(rng, base, 4000) {
			if op.followUp {
				fu := FollowUp{Seq: op.seq, PreciseOrigin: float64(i) * 7, Correction: float64(i % 13), RateRatio: 1}
				ref.handleFollowUp(&fu)
				s.HandleFollowUp(&fu)
				continue
			}
			rxTS := float64(i) * 1000
			ref.handleSync(&Sync{Seq: op.seq}, rxTS)
			s.HandleSync(&Sync{Seq: op.seq}, rxTS)
		}
		if len(ref.out) < 200 {
			t.Fatalf("base %d: only %d matched pairs, the stream is too sparse", base, len(ref.out))
		}
		if !reflect.DeepEqual(got, ref.out) {
			t.Fatalf("base %d: slave emitted %d offsets, reference %d (or they differ)", base, len(got), len(ref.out))
		}
		if s.Matched() != uint64(len(ref.out)) {
			t.Fatalf("base %d: Matched() = %d, want %d", base, s.Matched(), len(ref.out))
		}
	}
}

// refRelay is the map-keyed two-step relay the seq ring replaced, for one
// domain, with the neighbor rate ratio at 1 and the default link delay (no
// pdelay runs in the comparison).
type refRelay struct {
	b       *netsim.Bridge
	frames  *netsim.FramePool
	slave   int
	masters []int
	linkNS  float64
	pending *refWindow[*refSync]
}

type refSync struct {
	rxTS float64
	txTS map[int]float64
	fu   *FollowUp
	done map[int]bool
}

func (r *refRelay) Handle(_ *netsim.Bridge, ingress int, f *netsim.Frame, rxTS float64) bool {
	switch m := f.Payload.(type) {
	case *Sync:
		if ingress != r.slave {
			return true
		}
		r.pending.add(m.Seq, &refSync{rxTS: rxTS, txTS: map[int]float64{}, done: map[int]bool{}})
		for _, egress := range r.masters {
			out := r.frames.Clone(f)
			r.b.TransmitAt(egress, r.b.ResidenceFor(f), out, func(egress int, payload any, txTS float64) {
				if st, ok := r.pending.m[payload.(*Sync).Seq]; ok {
					st.txTS[egress] = txTS
					if st.fu != nil {
						r.forward(st, egress)
					}
				}
			})
		}
	case *FollowUp:
		st, ok := r.pending.m[m.Seq]
		if ingress != r.slave || !ok {
			return true
		}
		fu := *m
		st.fu = &fu
		for _, egress := range r.masters {
			if _, ok := st.txTS[egress]; ok {
				r.forward(st, egress)
			}
		}
	}
	return true
}

func (r *refRelay) forward(st *refSync, egress int) {
	if st.done[egress] {
		return
	}
	st.done[egress] = true
	out := *st.fu
	out.Correction = st.fu.Correction + (st.txTS[egress]-st.rxTS+r.linkNS)*st.fu.RateRatio
	r.b.TransmitAfterResidence(egress, newFrame(r.frames, "nic/sw", &out))
	if len(st.done) == len(r.masters) {
		delete(r.pending.m, st.fu.Seq)
	}
}

// relayCapture is one frame a master port delivered to its end station.
type relayCapture struct {
	port int
	at   sim.Time
	fu   FollowUp
	sync uint16
}

// runRelayStream builds a four-port bridge (slave port 0, master ports
// 1–3, each to a capturing NIC), installs hook (nil: a real Relay) and
// feeds port 0 the stream at random µs spacing, so FollowUps often arrive
// before some of their Sync's egress timestamps.
func runRelayStream(t *testing.T, seed int64, ops []seqOp, useRef bool) []relayCapture {
	t.Helper()
	h := newHarness(seed)
	br := netsim.NewBridge("sw", h.sched, h.streams.Stream("br"), h.phc("sw", 3000, 0),
		netsim.BridgeConfig{Ports: 4, Residence: map[int]netsim.ResidenceModel{
			netsim.PriorityBestEffort: {Base: 2 * time.Microsecond, JitterNS: 800},
		}})
	var got []relayCapture
	for p := 0; p < 4; p++ {
		nic := h.nic(fmt.Sprintf("n%d", p), 0, 0)
		h.connect(t, nic.Port(), br.Port(p), 500*time.Nanosecond, 0)
		port := p
		nic.SetHandler(func(f *netsim.Frame, _ float64) {
			c := relayCapture{port: port, at: h.sched.Now()}
			switch m := f.Payload.(type) {
			case *FollowUp:
				c.fu = *m
			case *Sync:
				c.sync = m.Seq
			}
			got = append(got, c)
		})
	}
	cfg := RelayConfig{Domains: map[int]DomainPorts{0: {SlavePort: 0, MasterPorts: []int{1, 2, 3}}}, DefaultLinkDelayNS: 500}
	if useRef {
		br.SetHook(&refRelay{b: br, frames: netsim.PoolOf(h.sched), slave: 0, masters: []int{1, 2, 3},
			linkNS: cfg.DefaultLinkDelayNS, pending: newRefWindow[*refSync]()})
	} else if _, err := NewRelay(br, h.sched, h.streams.Stream("relay"), cfg); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	at := sim.Time(0)
	for i, op := range ops {
		at = at.Add(time.Duration(200 + rng.Intn(8000)))
		var payload any = &Sync{Seq: op.seq}
		if op.followUp {
			payload = &FollowUp{Seq: op.seq, PreciseOrigin: float64(i) * 1e3, Correction: float64(i % 17), RateRatio: 1 + float64(i%5)*1e-6, GMIdentity: "gm"}
		}
		h.sched.At(at, func() {
			f := netsim.PoolOf(h.sched).Get()
			f.Src, f.Dst, f.Payload = "nic/up", MulticastAddr, payload
			br.Receive(br.Port(0), f)
		})
	}
	if err := h.sched.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRelayMatchesMapReference runs the same random streams through a
// Relay and through the map-keyed reference on identically seeded
// bridges, and requires every relayed Sync and forwarded FollowUp to
// leave on the same port at the same instant with the same fields.
func TestRelayMatchesMapReference(t *testing.T) {
	for _, base := range []uint16{0, 40000, 65530} {
		seed := int64(base) + 3
		ops := randomSeqStream(rand.New(rand.NewSource(seed)), base, 3000)
		want := runRelayStream(t, seed, ops, true)
		got := runRelayStream(t, seed, ops, false)
		fus := 0
		for _, c := range want {
			if c.fu.GMIdentity != "" {
				fus++
			}
		}
		if fus < 500 {
			t.Fatalf("base %d: reference forwarded only %d FollowUps", base, fus)
		}
		if len(got) != len(want) {
			t.Fatalf("base %d: relay delivered %d frames, reference %d", base, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("base %d: frame %d: relay %+v, reference %+v", base, i, got[i], want[i])
			}
		}
	}
}

// TestRelayRejectsBadDomain pins the domain-number range of the relay's
// dense domain table: a gPTP domainNumber is one octet, so a relay
// configured or reconfigured with a number outside 0–255 is an error, and
// a valid number far above the others still relays and removes cleanly.
func TestRelayRejectsBadDomain(t *testing.T) {
	h := newHarness(9)
	br := netsim.NewBridge("sw", h.sched, h.streams.Stream("br"), h.phc("sw", 0, 0), netsim.BridgeConfig{Ports: 2})
	ports := DomainPorts{SlavePort: 0, MasterPorts: []int{1}}
	for _, d := range []int{-1, maxDomain + 1} {
		if _, err := NewRelay(br, h.sched, nil, RelayConfig{Domains: map[int]DomainPorts{d: ports}}); err == nil {
			t.Fatalf("NewRelay accepted domain %d", d)
		}
	}
	r, err := NewRelay(br, h.sched, nil, RelayConfig{Domains: map[int]DomainPorts{0: ports}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetDomainPorts(-1, ports); err == nil {
		t.Fatal("SetDomainPorts accepted domain -1")
	}
	if err := r.SetDomainPorts(maxDomain, ports); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.DomainPortsFor(maxDomain); !ok {
		t.Fatalf("domain %d not relayed after SetDomainPorts", maxDomain)
	}
	r.RemoveDomain(maxDomain)
	r.RemoveDomain(maxDomain + 7) // never configured: a no-op
	if _, ok := r.DomainPortsFor(maxDomain); ok {
		t.Fatalf("domain %d still relayed after RemoveDomain", maxDomain)
	}
	if _, ok := r.DomainPortsFor(0); !ok {
		t.Fatal("domain 0 lost")
	}
}
