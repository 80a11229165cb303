// Package core assembles the paper's complete experimental system (Fig. 2):
// four edge computing devices, each with an integrated TSN switch, an ACRN
// hypervisor hosting two clock-synchronization VMs (the first being the
// grandmaster of the device's gPTP domain), a full-mesh switch network with
// per-domain static spanning trees, a measurement VLAN, and the
// fault-tolerant dependent clock. It is the public entry point the
// studies, command-line tools and benchmarks build on.
package core

import (
	"time"

	"gptpfta/internal/attack"
	"gptpfta/internal/fta"
	"gptpfta/internal/netsim"
	"gptpfta/internal/wan"
)

// Config describes a testbed instance. The zero value plus NewConfig
// defaults reproduces the paper's setup. The JSON tags are the
// configuration file format (WriteJSON, ReadConfigJSON): durations are
// integer nanoseconds, hence the Ns suffixes.
type Config struct {
	// Seed drives every random stream; identical seeds reproduce runs
	// bit-for-bit.
	Seed int64 `json:"seed"`
	// Nodes is the number of edge computing devices (and gPTP domains).
	Nodes int `json:"nodes"`
	// VMsPerNode is the number of clock-synchronization VMs per node
	// (f+1 = 2 in the paper's fail-silent configuration).
	VMsPerNode int `json:"vmsPerNode"`
	// F is the tolerated number of Byzantine grandmaster faults.
	F int `json:"f"`
	// SyncInterval is the gPTP synchronization interval S.
	SyncInterval time.Duration `json:"syncIntervalNs"`
	// Phc2sysInterval is the CLOCK_SYNCTIME parameter update period.
	Phc2sysInterval time.Duration `json:"phc2sysIntervalNs"`
	// MonitorPeriod is the hypervisor monitor task period.
	MonitorPeriod time.Duration `json:"monitorPeriodNs"`
	// VoteThresholdNS enables the monitor's 2f+1 consistency vote.
	VoteThresholdNS float64 `json:"voteThresholdNs"`

	// Clock imperfections.
	MaxStaticPPB        float64 `json:"maxStaticPpb"` // static oscillator error drawn in ±this
	WanderPPBPerSqrtSec float64 `json:"wanderPpbPerSqrtSec"`
	TimestampJitterNS   float64 `json:"timestampJitterNs"`
	TSCReadNoiseNS      float64 `json:"tscReadNoiseNs"`
	BootOffsetMaxNS     float64 `json:"bootOffsetMaxNs"` // initial PHC disagreement across nodes

	// Network parameters.
	LinkPropagation time.Duration `json:"linkPropagationNs"`
	LinkJitterNS    float64       `json:"linkJitterNs"`
	// LinkLossProb is the per-frame silent-loss probability on every link
	// (CRC errors, queue overruns). The protocol stack tolerates loss by
	// skipping measurement intervals.
	LinkLossProb  float64               `json:"linkLossProb"`
	ResidencePTP  netsim.ResidenceModel `json:"residencePtp"`
	ResidenceMeas netsim.ResidenceModel `json:"residenceMeasure"`
	ResidenceBE   netsim.ResidenceModel `json:"residenceBestEffort"`

	// Protocol parameters.
	StartupThresholdNS  float64        `json:"startupThresholdNs"`
	ValidityThresholdNS float64        `json:"validityThresholdNs"`
	FlagPolicy          fta.FlagPolicy `json:"flagPolicy"`

	// Holdover (graceful degradation under quorum starvation). Zero
	// HoldoverWindow keeps the legacy free-run behavior; see
	// ptp4l.Config.HoldoverWindow. The paper's default config leaves this
	// off — chaos experiments opt in.
	HoldoverWindow       time.Duration `json:"holdoverWindowNs"`
	ReacquireThresholdNS float64       `json:"reacquireThresholdNs"`
	ReacquireStableCount int           `json:"reacquireStableCount"`
	HoldoverMaxSlewPPB   float64       `json:"holdoverMaxSlewPpb"`

	// Transient software fault probabilities (per Sync).
	TxTimestampTimeoutProb float64 `json:"txTimestampTimeoutProb"`
	DeadlineMissProb       float64 `json:"deadlineMissProb"`

	// Measurement configuration (the paper uses VM 2 of dev2 as the
	// measurement VM and excludes the co-located GM c_m1).
	MeasurementNode int `json:"measurementNode"`
	MeasurementVM   int `json:"measurementVm"`

	// Kernels assigns a kernel version per VM name; missing entries get
	// the paper's vulnerable v4.19.1 (the identical-kernel scenario).
	Kernels map[string]string `json:"kernels,omitempty"`

	// DomainCount overrides the number of gPTP domains (default: one per
	// node). The single-domain ablation uses DomainCount = 1.
	DomainCount int `json:"domainCount,omitempty"`

	// Sites scales the topology: each site is one full copy of the paper's
	// mesh (Nodes switches × VMsPerNode ECD VMs, its own gPTP domains and
	// grandmasters), and site gateways (node 0 of each site) are joined in
	// a chain by InterSitePropagation links. The measurement VLAN rooted at
	// site 0 spans the whole fabric, so probe/reply traffic crosses every
	// site boundary. 0 or 1 reproduces the paper topology exactly.
	Sites int `json:"sites,omitempty"`
	// InterSitePropagation is the one-way latency of the gateway chain
	// links (a metro/long-haul span, so orders of magnitude above the
	// in-site LinkPropagation).
	InterSitePropagation time.Duration `json:"interSitePropagationNs,omitempty"`
	// BaselineClientsOnly reproduces the Kyriakakis-style baseline the
	// paper criticises: no start-up protocol, and grandmaster nodes do not
	// aggregate (their clocks free-run) — multi-domain aggregation is for
	// PTP clients only.
	BaselineClientsOnly bool `json:"baselineClientsOnly,omitempty"`

	// WanSync configures the wide-area site-level FTA tier (internal/wan):
	// with Enabled set on a multi-site fabric, a coordinator on the
	// system's scheduler aggregates per-site clocks over the gateway chain and
	// disciplines one virtual correction per site, with cross-site holdover
	// under quorum loss. Off by default; single-site fabrics ignore it.
	// All fields are value types, keeping PrefixHash stable.
	WanSync wan.Config `json:"wanSync"`
}

// NumDomains resolves the effective domain count per site.
func (c Config) NumDomains() int {
	if c.DomainCount > 0 {
		return c.DomainCount
	}
	return c.Nodes
}

// NumSites resolves the effective site count (0 means 1, the paper setup).
func (c Config) NumSites() int {
	if c.Sites > 1 {
		return c.Sites
	}
	return 1
}

// TotalNodes is the number of switches across all sites.
func (c Config) TotalNodes() int { return c.NumSites() * c.Nodes }

// NewConfig returns the paper's testbed configuration for the given seed.
func NewConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		Nodes:           4,
		VMsPerNode:      2,
		F:               1,
		SyncInterval:    125 * time.Millisecond,
		Phc2sysInterval: 31250 * time.Microsecond,
		MonitorPeriod:   125 * time.Millisecond,

		MaxStaticPPB:        5000, // r_max = 5 ppm (802.1AS, paper §III-A3)
		WanderPPBPerSqrtSec: 1,
		TimestampJitterNS:   8,
		TSCReadNoiseNS:      30,
		BootOffsetMaxNS:     1e6, // up to 1 ms boot-time disagreement

		LinkPropagation: 500 * time.Nanosecond,
		LinkJitterNS:    20,
		// Best-effort traffic (and the Sync path data used for E) sees a
		// heavier residence tail than the prioritised classes — this is
		// what separates E ≈ 5 µs from γ ≈ 1 µs, as in the paper.
		ResidencePTP: netsim.ResidenceModel{
			Base: 1200 * time.Nanosecond, JitterNS: 120,
			TailProb: 5e-4, TailMin: 500 * time.Nanosecond, TailMax: 2 * time.Microsecond,
		},
		ResidenceMeas: netsim.ResidenceModel{
			Base: 1000 * time.Nanosecond, JitterNS: 100,
			TailProb: 2e-4, TailMin: 300 * time.Nanosecond, TailMax: time.Microsecond,
		},
		ResidenceBE: netsim.ResidenceModel{
			Base: 1500 * time.Nanosecond, JitterNS: 200,
			TailProb: 1.5e-3, TailMin: time.Microsecond, TailMax: 4 * time.Microsecond,
		},

		StartupThresholdNS:  1000,
		ValidityThresholdNS: 10000,
		FlagPolicy:          fta.FlagMonitor,

		// Calibrated to the paper's 24 h totals: 2992 tx-timestamp
		// timeouts and 347 deadline misses over 4 domains at 8 Hz.
		TxTimestampTimeoutProb: 1.1e-3,
		DeadlineMissProb:       1.25e-4,

		MeasurementNode: 1, // dev2
		MeasurementVM:   1, // c22

		Sites:                1,
		InterSitePropagation: 50 * time.Microsecond,

		Kernels: map[string]string{},
	}
}

// ScaleConfig builds a multi-site fabric configuration for scale
// benchmarks: sites copies of the paper mesh with nodes switches and vms
// clock VMs each, gateways chained at metro latency. Network element
// count = sites × nodes × (1 + vms). The ignored trailing argument was the
// shard count of the deleted sharded kernel; it is kept only for bench/,
// which still passes one.
func ScaleConfig(seed int64, sites, nodes, vms int, _ ...int) Config {
	cfg := NewConfig(seed)
	cfg.Nodes = nodes
	cfg.VMsPerNode = vms
	cfg.Sites = sites
	// The paper defaults pin the measurement VM to dev2/c22; clamp onto
	// smaller fabrics so any (nodes, vms) ≥ 1 builds.
	if cfg.MeasurementNode >= nodes {
		cfg.MeasurementNode = nodes - 1
	}
	if cfg.MeasurementVM >= vms {
		cfg.MeasurementVM = vms - 1
	}
	return cfg
}

// VMName names VM vm on node (both zero-based): c11 … c42.
func VMName(node, vm int) string {
	return "c" + itoa(node+1) + itoa(vm+1)
}

// NodeName names a node: dev1 … dev4.
func NodeName(node int) string { return "dev" + itoa(node+1) }

func itoa(v int) string {
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

// KernelFor resolves a VM's kernel version with the vulnerable default.
func (c Config) KernelFor(vm string) string {
	if k, ok := c.Kernels[vm]; ok {
		return k
	}
	return attack.VulnerableKernel
}

// DiversifyKernels assigns a distinct kernel version to every grandmaster
// except keepVulnerable (the Fig. 3b scenario: only c14's kernel remains
// exploitable).
func (c *Config) DiversifyKernels(keepVulnerable string) {
	diverse := []string{"v5.4.86", "v5.10.46", "v5.15.12", "v6.1.38"}
	for i := 0; i < c.Nodes; i++ {
		name := VMName(i, 0)
		if name == keepVulnerable {
			c.Kernels[name] = attack.VulnerableKernel
			continue
		}
		c.Kernels[name] = diverse[i%len(diverse)]
	}
}
