package gptp

import (
	"math"
	"time"

	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// TxFunc transmits a frame out of one specific port and returns the local
// hardware transmit timestamp.
type TxFunc func(f *netsim.Frame) (txTS float64, ok bool)

// LinkDelayConfig configures a peer-delay endpoint.
type LinkDelayConfig struct {
	// Interval between PdelayReq transmissions. 802.1AS default: 1 s.
	Interval time.Duration
	// Alpha is the EWMA smoothing factor for the mean link delay
	// (weight of the newest sample). Default 0.1.
	Alpha float64
}

func (c LinkDelayConfig) withDefaults() LinkDelayConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Alpha == 0 {
		c.Alpha = 0.1
	}
	return c
}

// LinkDelay runs the 802.1AS peer-delay mechanism on one end of a link:
// it is both initiator (measuring the mean link delay and neighbor rate
// ratio toward its peer) and responder (answering the peer's requests).
// Time-aware bridges run one per port; end stations run one on their NIC.
type LinkDelay struct {
	name   string
	addr   netsim.Address // source address of this endpoint's frames
	sched  *sim.Scheduler
	frames *netsim.FramePool
	msgs   *payloads
	cfg    LinkDelayConfig
	tx     TxFunc
	rng    *sim.Stream
	linkDelayState
}

// linkDelayState is the endpoint's mutable state, copied whole by Snapshot.
type linkDelayState struct {
	ticker *sim.Ticker // revalidated by the scheduler's restore

	// Initiator state.
	seq      uint16
	reqT1    float64
	respT2   float64
	respT4   float64
	havePair bool

	meanDelayNS float64
	haveDelay   bool
	samples     uint64

	// Neighbor rate ratio from consecutive (t3, t4) pairs.
	prevT3, prevT4 float64
	havePrev       bool
	rateRatio      float64
}

// NewLinkDelay creates a peer-delay endpoint. name identifies the endpoint
// in Requester fields so responses can be matched on multi-endpoint tests.
func NewLinkDelay(name string, sched *sim.Scheduler, rng *sim.Stream, tx TxFunc, cfg LinkDelayConfig) *LinkDelay {
	return &LinkDelay{
		name:           name,
		addr:           netsim.Address("nic/" + name),
		sched:          sched,
		frames:         netsim.PoolOf(sched),
		msgs:           payloadsOf(sched),
		cfg:            cfg.withDefaults(),
		tx:             tx,
		rng:            rng,
		linkDelayState: linkDelayState{rateRatio: 1},
	}
}

// Start begins periodic measurement, with a random phase so endpoints do not
// burst in lockstep.
func (ld *LinkDelay) Start() error {
	phase := time.Duration(0)
	if ld.rng != nil {
		phase = time.Duration(ld.rng.Int63n(int64(ld.cfg.Interval)))
	}
	t, err := ld.sched.Every(ld.sched.Now().Add(phase), ld.cfg.Interval, ld.sendReq)
	if err != nil {
		return err
	}
	ld.ticker = t
	return nil
}

// Stop halts periodic measurement.
func (ld *LinkDelay) Stop() {
	if ld.ticker != nil {
		ld.ticker.Stop()
		ld.ticker = nil
	}
}

func (ld *LinkDelay) sendReq() {
	ld.seq++
	req := ld.msgs.reqs.Get()
	req.Seq, req.Requester = ld.seq, ld.name
	ts, ok := ld.tx(newFrame(ld.frames, ld.addr, req))
	if !ok {
		return
	}
	ld.reqT1 = ts
	ld.havePair = false
}

// HandleFrame processes a received gPTP pdelay message (with its local
// receive timestamp) and reports whether it consumed the payload. A
// consumed message is recycled on return, so the caller must not use it
// afterwards.
func (ld *LinkDelay) HandleFrame(payload any, rxTS float64) bool {
	switch m := payload.(type) {
	case *PdelayReq:
		ld.respond(m, rxTS)
		ld.msgs.reqs.Put(m)
	case *PdelayResp:
		// A stale or foreign response is consumed but ignored.
		if m.Requester == ld.name && m.Seq == ld.seq {
			ld.respT2 = m.T2
			ld.respT4 = rxTS
			ld.havePair = true
		}
		ld.msgs.resps.Put(m)
	case *PdelayRespFollowUp:
		if m.Requester == ld.name && m.Seq == ld.seq && ld.havePair {
			ld.complete(m.T3)
		}
		ld.msgs.respFUs.Put(m)
	default:
		return false
	}
	return true
}

// respond implements the responder side: send PdelayResp carrying t2, then
// PdelayRespFollowUp carrying t3 (the response transmit timestamp).
func (ld *LinkDelay) respond(req *PdelayReq, t2 float64) {
	resp := ld.msgs.resps.Get()
	resp.Seq, resp.Requester, resp.T2 = req.Seq, req.Requester, t2
	t3, ok := ld.tx(newFrame(ld.frames, ld.addr, resp))
	if !ok {
		return
	}
	fu := ld.msgs.respFUs.Get()
	fu.Seq, fu.Requester, fu.T3 = req.Seq, req.Requester, t3
	ld.tx(newFrame(ld.frames, ld.addr, fu))
}

// complete computes one link-delay sample from (t1, t2, t3, t4):
// D = ((t4−t1) − (t3−t2)·r) / 2, with r the neighbor rate ratio.
func (ld *LinkDelay) complete(t3 float64) {
	t1, t2, t4 := ld.reqT1, ld.respT2, ld.respT4
	ld.havePair = false

	if ld.havePrev {
		dt3 := t3 - ld.prevT3
		dt4 := t4 - ld.prevT4
		if dt4 > 0 {
			r := dt3 / dt4
			// Clamp to a sane ±200 ppm window against timestamp noise.
			if r > 0.9998 && r < 1.0002 {
				ld.rateRatio = 0.9*ld.rateRatio + 0.1*r
			}
		}
	}
	ld.prevT3, ld.prevT4 = t3, t4
	ld.havePrev = true

	d := ((t4 - t1) - (t3-t2)*ld.rateRatio) / 2
	if d < 0 {
		d = 0
	}
	ld.samples++
	if !ld.haveDelay {
		ld.meanDelayNS = d
		ld.haveDelay = true
		return
	}
	a := ld.cfg.Alpha
	ld.meanDelayNS = (1-a)*ld.meanDelayNS + a*d
}

// MeanDelayNS reports the smoothed mean link delay and whether at least one
// measurement completed.
func (ld *LinkDelay) MeanDelayNS() (float64, bool) { return ld.meanDelayNS, ld.haveDelay }

// NeighborRateRatio reports the smoothed peer-to-local rate ratio.
func (ld *LinkDelay) NeighborRateRatio() float64 { return ld.rateRatio }

// Samples reports how many delay measurements completed.
func (ld *LinkDelay) Samples() uint64 { return ld.samples }

// DelayOrDefault returns the measured delay, or def when no measurement has
// completed yet (start-up).
func (ld *LinkDelay) DelayOrDefault(def float64) float64 {
	if ld.haveDelay && !math.IsNaN(ld.meanDelayNS) {
		return ld.meanDelayNS
	}
	return def
}
