package shmem

// ClockParams maps the node's platform counter (TSC) onto the fault-tolerant
// global time: CLOCK_SYNCTIME(tsc) = SyncRef + (tsc − TSCRef)·Ratio.
// A clock-synchronization VM's phc2sys derives these parameters from its
// disciplined NIC PHC and publishes them into its STSHMEM slot.
type ClockParams struct {
	TSCRef  float64
	SyncRef float64
	Ratio   float64
	// Seq increments with every update; the hypervisor monitor uses it to
	// detect a fail-silent writer.
	Seq uint64
	// UpdatedTSC is the TSC reading at the last update.
	UpdatedTSC float64
	// Valid reports whether the slot has ever been written since boot.
	Valid bool
}

// SyncTimeAt evaluates CLOCK_SYNCTIME at a TSC reading.
func (p ClockParams) SyncTimeAt(tsc float64) float64 {
	return p.SyncRef + (tsc-p.TSCRef)*p.Ratio
}

// STSHMEM is the synchronized-time shared memory the ACRN hypervisor
// exposes to co-located VMs as a virtual PCI device. Each of the node's
// clock-synchronization VMs owns one parameter slot; the hypervisor's
// monitor selects the active slot, and every VM on the node derives
// CLOCK_SYNCTIME from it. Like FTSHMEM it is touched only by the goroutine
// running its node's scheduler and needs no lock.
type STSHMEM struct {
	slots  []ClockParams
	active int
}

// NewSTSHMEM creates a region with one slot per clock-synchronization VM.
// Slot 0 starts active.
func NewSTSHMEM(slots int) *STSHMEM {
	return &STSHMEM{slots: make([]ClockParams, slots)}
}

// NumSlots reports the number of VM slots.
func (s *STSHMEM) NumSlots() int {
	return len(s.slots)
}

// Publish writes a VM's clock parameters into its slot, bumping Seq.
func (s *STSHMEM) Publish(slot int, p ClockParams) {
	if slot < 0 || slot >= len(s.slots) {
		return
	}
	p.Seq = s.slots[slot].Seq + 1
	p.Valid = true
	s.slots[slot] = p
}

// Slot snapshots one VM's parameters.
func (s *STSHMEM) Slot(slot int) ClockParams {
	if slot < 0 || slot >= len(s.slots) {
		return ClockParams{}
	}
	return s.slots[slot]
}

// Slots snapshots all parameter slots.
func (s *STSHMEM) Slots() []ClockParams {
	return append([]ClockParams(nil), s.slots...)
}

// Active reports which slot currently defines CLOCK_SYNCTIME.
func (s *STSHMEM) Active() int {
	return s.active
}

// SetActive switches the slot that defines CLOCK_SYNCTIME (hypervisor
// monitor failover).
func (s *STSHMEM) SetActive(slot int) {
	if slot >= 0 && slot < len(s.slots) {
		s.active = slot
	}
}

// Invalidate clears a slot (VM shutdown); the monitor will fail over.
func (s *STSHMEM) Invalidate(slot int) {
	if slot >= 0 && slot < len(s.slots) {
		s.slots[slot] = ClockParams{}
	}
}

// SyncTimeAt evaluates CLOCK_SYNCTIME from the active slot at a TSC
// reading. ok is false while no valid parameters are published.
func (s *STSHMEM) SyncTimeAt(tsc float64) (v float64, ok bool) {
	p := s.slots[s.active]
	if !p.Valid {
		return 0, false
	}
	return p.SyncTimeAt(tsc), true
}
