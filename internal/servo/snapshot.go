package servo

// Snapshot captures the servo state for warm-start forks (sim.Snapshotter;
// the servo package does not import sim, the interface is structural).
func (p *PI) Snapshot() any {
	st := p.piState
	return &st
}

// Restore rewinds the servo to a Snapshot.
func (p *PI) Restore(snap any) { p.piState = *snap.(*piState) }
