package core

import (
	"fmt"
	"time"

	"gptpfta/internal/netsim"
	"gptpfta/internal/wan"
)

// Wide-area tier bindings: System implements wan.Fabric (the coordinator's
// measurement view over the gateway chain) and chaos.SiteTopology (the
// fault injector's site-granular handle on the same fabric).

// NumSites implements wan.Fabric and chaos.SiteTopology.
func (s *System) NumSites() int { return s.cfg.NumSites() }

// siteGateway returns the global switch index of a site's gateway (its
// node 0, the chain endpoint).
func (s *System) siteGateway(site int) int { return site * s.cfg.Nodes }

// SiteTime implements wan.Fabric: site i's aggregate clock, read as the
// gateway node's CLOCK_SYNCTIME. The site counts as dead while its gateway
// switch is failed (a site-fail chaos action kills every switch of the
// site, so the gateway stands in for all of them) or while the gateway
// node cannot evaluate its sync time.
func (s *System) SiteTime(site int) (float64, bool) {
	g := s.siteGateway(site)
	if s.bridges[g].Failed() {
		return 0, false
	}
	return s.nodes[g].SyncTimeNow()
}

// wanChainLink returns the gateway-chain link joining site i and i+1; its
// direction 0 runs from the lower-indexed site to the higher.
func (s *System) wanChainLink(i int) *netsim.Link {
	return s.linkByName[s.WanLinkName(i)]
}

// PathUp implements wan.Fabric: the chain path between two sites is intact
// iff no chain segment on it is severed and no intermediate gateway has
// failed (endpoint liveness is SiteTime's concern).
func (s *System) PathUp(i, j int) bool {
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	for k := lo; k < hi; k++ {
		if s.wanChainLink(k).Down() {
			return false
		}
	}
	for k := lo + 1; k < hi; k++ {
		if s.bridges[s.siteGateway(k)].Failed() {
			return false
		}
	}
	return true
}

// PathAsymNS implements wan.Fabric: the signed error a two-way exchange
// between observer site i and peer site j inherits from WAN path
// asymmetry — half the difference between the peer→observer and
// observer→peer deterministic path delays (a slower return path makes the
// peer look further behind, inflating the measured local−peer offset).
func (s *System) PathAsymNS(i, j int) float64 {
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	var toHi, toLo time.Duration
	for k := lo; k < hi; k++ {
		l := s.wanChainLink(k)
		toHi += l.DirectionalDelay(0)
		toLo += l.DirectionalDelay(1)
	}
	// toHi is the i→j delay when i < j; flip for the other observer.
	dIJ, dJI := toHi, toLo
	if i > j {
		dIJ, dJI = toLo, toHi
	}
	return float64(dJI-dIJ) / 2
}

// SiteBridgeNames implements chaos.SiteTopology.
func (s *System) SiteBridgeNames(site int) []string {
	names := make([]string, 0, s.cfg.Nodes)
	base := site * s.cfg.Nodes
	for i := 0; i < s.cfg.Nodes; i++ {
		names = append(names, "sw"+itoa(base+i+1))
	}
	return names
}

// WanLinkName implements chaos.SiteTopology: the chain link joining site i
// and i+1, named after its gateway switches.
func (s *System) WanLinkName(i int) string {
	return fmt.Sprintf("sw%d-sw%d", i*s.cfg.Nodes+1, (i+1)*s.cfg.Nodes+1)
}

// Wan exposes the site-level coordinator (nil when the tier is disabled).
func (s *System) Wan() *wan.Coordinator { return s.wanCoord }

// buildWan wires the coordinator and, when configured, the drift process.
func (s *System) buildWan() {
	if !s.cfg.WanSync.Enabled || s.cfg.NumSites() < 2 {
		return
	}
	s.wanCoord = wan.NewCoordinator(s.cfg.WanSync, s, s.streams, s.obs)
	s.stateful = append(s.stateful, s.wanCoord)
	if s.cfg.WanSync.Drift.Enabled {
		var links []wan.NamedLink
		for i := 0; i < s.cfg.NumSites()-1; i++ {
			name := s.WanLinkName(i)
			links = append(links, wan.NamedLink{Name: name, Link: s.linkByName[name]})
		}
		s.wanDrift = wan.NewDrift(s.cfg.WanSync.Drift, links, s.streams)
		s.stateful = append(s.stateful, s.wanDrift)
	}
}
