package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"gptpfta/internal/obs"
	"gptpfta/internal/sim"
)

// Warm-start snapshot engine. System.Snapshot captures every stateful
// component — the scheduler (with queued events as re-arm descriptors),
// the RNG stream positions and the metrics registry, then everything on
// the System.stateful list: bridges (with their clocks), links, relays,
// nodes (stacks, phc2sys, shared memory), the measurement collector and
// agents, the event log, the Sync latency tracker and the wide-area tier
// — into one opaque value. ForkSystem rewinds the captured system back to
// that instant, so a sweep campaign pays for the convergence prefix once
// and forks per sweep point.
//
// Forks are in-place: all component pointers (and the closures queued in the
// scheduler) refer to the original objects, so a snapshot can only be
// resumed on the System it was taken from, one fork at a time. Anything a
// fork could mutate through a shared reference — pending frames, relay
// records, open measurement windows — is deep-copied at Snapshot time and
// re-cloned on every Restore.

// eventLogSnapshot holds a pristine copy of the log.
type eventLogSnapshot struct {
	events []Event
}

// Snapshot implements sim.Snapshotter.
func (l *EventLog) Snapshot() any {
	return &eventLogSnapshot{events: append([]Event(nil), l.events...)}
}

// Restore implements sim.Snapshotter. The log is rebuilt on a fresh backing
// array: Events() copies, but results collected from an earlier fork must
// never share storage with the live log.
func (l *EventLog) Restore(snap any) {
	sn := snap.(*eventLogSnapshot)
	l.events = append([]Event(nil), sn.events...)
}

// systemSnapshot captures a System. states mirrors System.stateful
// positionally. Snapshots are taken at driver time, between RunFor calls.
type systemSnapshot struct {
	sys     *System
	sched   any
	streams any
	metrics *obs.RegistryState
	states  []any
	started bool
}

// Snapshot captures the complete system state at the current instant.
func (s *System) Snapshot() any {
	return &systemSnapshot{
		sys:     s,
		sched:   s.sched.Snapshot(),
		streams: s.streams.Snapshot(),
		metrics: s.obs.StateSnapshot(),
		states:  sim.SnapshotAll(s.stateful),
		started: s.started,
	}
}

// Restore rewinds the system to a Snapshot taken from it. The scheduler,
// streams and metrics come back first, then every stateful component in
// build order.
func (s *System) Restore(snap any) {
	sn := snap.(*systemSnapshot)
	if sn.sys != s {
		panic("core: snapshot restored into a different System")
	}
	s.sched.Restore(sn.sched)
	s.streams.Restore(sn.streams)
	s.obs.RestoreState(sn.metrics)
	sim.RestoreAll(s.stateful, sn.states)
	s.started = sn.started
}

// ForkSystem resumes a snapshot: the captured system is rewound in place to
// the snapshot instant and returned, ready to diverge. Because forks share
// the component graph, run each fork to completion (and collect its results)
// before forking again from the same snapshot.
func ForkSystem(snap any) (*System, error) {
	sn, ok := snap.(*systemSnapshot)
	if !ok {
		return nil, fmt.Errorf("core: ForkSystem: not a System snapshot (%T)", snap)
	}
	sn.sys.Restore(sn)
	return sn.sys, nil
}

// PrefixHash fingerprints everything that shapes a run's warm-up prefix: the
// full Config plus the prefix boundary. Two sweep points with equal hashes
// are guaranteed to execute identical prefixes, so one may fork from the
// other's snapshot; a differing hash (topology, thresholds, intervals — any
// Config field at all) forces a cold run. Map fields are serialised in
// sorted key order, so the hash is stable across processes.
func PrefixHash(cfg Config, boundary time.Duration) string {
	h := sha256.New()
	// fmt prints map keys in sorted order, but serialise Kernels explicitly
	// so the hash does not depend on that formatting detail.
	kernels := make([]string, 0, len(cfg.Kernels))
	for k, v := range cfg.Kernels {
		kernels = append(kernels, k+"="+v)
	}
	sort.Strings(kernels)
	cfgNoMap := cfg
	cfgNoMap.Kernels = nil
	fmt.Fprintf(h, "%#v|%v|%v", cfgNoMap, kernels, boundary)
	return hex.EncodeToString(h.Sum(nil))
}
