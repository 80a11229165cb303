package clock

// Warm-start snapshot support (sim.Snapshotter). Clocks are advanced lazily
// on read, so their whole mutable state is one small state struct, copied
// by value; rewinding it in place keeps every pointer held by servos, NICs
// and shared-memory segments valid across a fork. The wander stream
// position itself is restored by sim.Streams.Restore, so advance() re-draws
// the identical random-walk steps after a fork.

// Snapshot implements sim.Snapshotter.
func (o *Oscillator) Snapshot() any {
	st := o.oscillatorState
	return &st
}

// Restore implements sim.Snapshotter.
func (o *Oscillator) Restore(snap any) { o.oscillatorState = *snap.(*oscillatorState) }

// phcSnapshot is a PHC's discipline state plus its oscillator's, so owners
// snapshot the whole clock with one call.
type phcSnapshot struct {
	phcState
	osc oscillatorState
}

// Snapshot implements sim.Snapshotter.
func (p *PHC) Snapshot() any { return &phcSnapshot{p.phcState, p.osc.oscillatorState} }

// Restore implements sim.Snapshotter.
func (p *PHC) Restore(snap any) {
	sn := snap.(*phcSnapshot)
	p.phcState = sn.phcState
	p.osc.oscillatorState = sn.osc
}

// Snapshot implements sim.Snapshotter. The TSC itself is stateless — reads
// pass through to the oscillator — so its snapshot is the oscillator's.
func (t *TSC) Snapshot() any { return t.osc.Snapshot() }

// Restore implements sim.Snapshotter.
func (t *TSC) Restore(snap any) { t.osc.Restore(snap) }
