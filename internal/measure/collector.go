package measure

import (
	"errors"
	"math"
	"time"

	"gptpfta/internal/netsim"
	"gptpfta/internal/sim"
)

// Sample is one per-second precision measurement.
type Sample struct {
	Seq uint64
	// AtSec is the simulation time of the probe, in seconds.
	AtSec float64
	// PiStarNS is Π*_s per eq. 3.1, nanoseconds.
	PiStarNS float64
	// Replies is the number of receivers that contributed.
	Replies int
}

// CollectorConfig parameterises the measurement VM.
type CollectorConfig struct {
	// Interval between probes; the paper measures once per second.
	Interval time.Duration
	// CollectWindow is how long after a probe the replies are gathered.
	CollectWindow time.Duration
	// Exclude lists VM names omitted from Π* (the paper omits the VM
	// co-located with the measurement VM, c_m1, to keep paths symmetric).
	Exclude []string
	// MinReplies below which a probe interval yields no sample (e.g.
	// during simultaneous reboots).
	MinReplies int
}

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.CollectWindow <= 0 {
		c.CollectWindow = 500 * time.Millisecond
	}
	if c.MinReplies <= 0 {
		c.MinReplies = 2
	}
	return c
}

// pendingWindow is one open probe interval awaiting replies. Windows are
// recycled: a closed window keeps its reply slice's capacity for the next
// probe, so steady-state collection stops allocating.
type pendingWindow struct {
	seq     uint64
	open    bool
	replies []Reply
}

// Collector is the measurement VM's probe driver and Π* computer.
type Collector struct {
	cfg    CollectorConfig
	sched  *sim.Scheduler
	frames *netsim.FramePool
	free   *replyPool
	nic    *netsim.NIC
	name   string
	addr   netsim.Address

	exclude map[string]bool
	collectorState
	// windows holds the open collect windows plus recycled closed ones.
	// At most ceil(CollectWindow/Interval)+1 windows are ever open, so a
	// linear scan beats a map and drops the per-probe map churn.
	windows []pendingWindow
	// times is the reply-timestamp scratch buffer reused across finalize
	// calls.
	times []float64

	samples []Sample
	// per-path latency extrema for γ (eq. 3.2), keyed by replying VM.
	pathMin map[string]time.Duration
	pathMax map[string]time.Duration
}

// collectorState is the collector's scalar state, copied whole by Snapshot.
type collectorState struct {
	ticker *sim.Ticker // revalidated by the scheduler's restore
	seq    uint64
}

// NewCollector creates the collector on the measurement VM's NIC.
func NewCollector(name string, sched *sim.Scheduler, nic *netsim.NIC, cfg CollectorConfig) *Collector {
	cfg = cfg.withDefaults()
	ex := make(map[string]bool, len(cfg.Exclude)+1)
	for _, e := range cfg.Exclude {
		ex[e] = true
	}
	ex[name] = true // the sender never measures itself
	return &Collector{
		cfg:     cfg,
		sched:   sched,
		frames:  netsim.PoolOf(sched),
		free:    sim.Local[replyPool](sched),
		nic:     nic,
		name:    name,
		addr:    netsim.Address("nic/" + name),
		exclude: ex,
		pathMin: make(map[string]time.Duration),
		pathMax: make(map[string]time.Duration),
	}
}

// Start begins probing.
func (c *Collector) Start() error {
	if c.ticker != nil {
		return errors.New("measure: collector already started")
	}
	t, err := c.sched.Every(c.sched.Now().Add(c.cfg.Interval), c.cfg.Interval, c.probe)
	if err != nil {
		return err
	}
	c.ticker = t
	return nil
}

// Stop halts probing.
func (c *Collector) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}

// window returns the open window for seq, or nil if it already closed.
func (c *Collector) window(seq uint64) *pendingWindow {
	for i := range c.windows {
		if c.windows[i].open && c.windows[i].seq == seq {
			return &c.windows[i]
		}
	}
	return nil
}

// openWindow claims a recycled closed window or grows the slice.
func (c *Collector) openWindow(seq uint64) {
	for i := range c.windows {
		if !c.windows[i].open {
			c.windows[i].seq = seq
			c.windows[i].open = true
			return
		}
	}
	c.windows = append(c.windows, pendingWindow{seq: seq, open: true})
}

// closeWindow recycles a window.
func (c *Collector) closeWindow(w *pendingWindow) {
	w.replies = w.replies[:0]
	w.open = false
}

// Handle consumes measurement replies; install it alongside the Agent on
// the measurement VM's frame demultiplexer. The window keeps a copy of the
// reply, and the payload is recycled.
func (c *Collector) Handle(f *netsim.Frame, _ float64) {
	r, ok := f.Payload.(*Reply)
	if !ok {
		return
	}
	// A reply after its collect window closed is dropped.
	if w := c.window(r.Seq); w != nil {
		w.replies = append(w.replies, *r)
	}
	c.free.Put(r)
}

func (c *Collector) probe() {
	c.seq++
	seq := c.seq
	c.openWindow(seq)
	f := c.frames.Get()
	f.Src = c.addr
	f.Dst = MulticastAddr
	f.Priority = netsim.PriorityMeasure
	f.Payload = &Probe{Seq: seq, Origin: c.addr}
	atSec := float64(c.sched.Now()) / 1e9
	if _, err := c.nic.Send(f); err != nil {
		c.closeWindow(c.window(seq))
		return
	}
	c.sched.After(c.cfg.CollectWindow, func() { c.finalize(seq, atSec) })
}

func (c *Collector) finalize(seq uint64, atSec float64) {
	w := c.window(seq)
	if w == nil {
		return
	}
	replies := w.replies

	times := c.times[:0]
	for i := range replies {
		r := &replies[i]
		if c.exclude[r.VM] || !r.Valid {
			continue
		}
		times = append(times, r.SyncTimeNS)
		if cur, ok := c.pathMin[r.VM]; !ok || r.PathLatency < cur {
			c.pathMin[r.VM] = r.PathLatency
		}
		if cur, ok := c.pathMax[r.VM]; !ok || r.PathLatency > cur {
			c.pathMax[r.VM] = r.PathLatency
		}
	}
	c.closeWindow(w)
	c.times = times
	if len(times) < c.cfg.MinReplies {
		return
	}
	var worst float64
	for i := range times {
		for j := i + 1; j < len(times); j++ {
			if d := math.Abs(times[i] - times[j]); d > worst {
				worst = d
			}
		}
	}
	c.samples = append(c.samples, Sample{Seq: seq, AtSec: atSec, PiStarNS: worst, Replies: len(times)})
}

// Samples returns the per-second precision series as a read-only view of
// the collector's internal buffer. Callers must not mutate or append to the
// returned slice; take a copy if samples must outlive further collection.
func (c *Collector) Samples() []Sample {
	return c.samples
}

// Gamma computes the measurement error per eq. 3.2 over the measurement
// paths observed so far: max per-path maximum latency minus min per-path
// minimum latency.
func (c *Collector) Gamma() time.Duration {
	var haveAny bool
	var maxMax, minMin time.Duration
	for vm, lo := range c.pathMin {
		hi := c.pathMax[vm]
		if !haveAny {
			minMin, maxMax = lo, hi
			haveAny = true
			continue
		}
		if lo < minMin {
			minMin = lo
		}
		if hi > maxMax {
			maxMax = hi
		}
	}
	if !haveAny {
		return 0
	}
	return maxMax - minMin
}
