package experiments

import "context"

// lift adapts a typed entry point to the registry's run signature,
// converting a typed-nil result into a nil Result interface on error.
// Every entry point takes the caller's context: the studies of the
// paper's system check it between the points runPoints runs, and the
// four that hand-build a micro-topology (bmca, dynamic, onestep, tas)
// check it between their modes or phases.
func lift[C any, R Result](run func(context.Context, C) (R, error)) func(context.Context, C) (Result, error) {
	return func(ctx context.Context, cfg C) (Result, error) {
		res, err := run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

// The package registry: every study in the repository, dispatchable by
// name. The command-line tools and the runner resolve experiments through
// Lookup/All instead of hand-wired switch blocks.
func init() {
	RegisterFunc("bounds",
		"§III-A3 bound methodology: E, Γ, u(N,f), Π, γ from measured latencies",
		func(seed int64) BoundsConfig { return BoundsConfig{Seed: seed} },
		lift(Bounds))

	RegisterFunc("resilience",
		"Fig. 3 cyber-resilience: CVE exploits on two grandmasters, identical or diverse kernels",
		func(seed int64) CyberResilienceConfig { return CyberResilienceConfig{Seed: seed} },
		lift(CyberResilience))

	RegisterFunc("faultinjection",
		"Fig. 4/5 fault-injection campaign: rotating GM shutdowns plus random redundant-VM failures",
		func(seed int64) FaultInjectionConfig { return FaultInjectionConfig{Seed: seed} },
		lift(FaultInjection))

	RegisterFunc("baseline",
		"A1 ablation: clients-only aggregation without initial grandmaster synchronization",
		func(seed int64) BaselineConfig { return BaselineConfig{Seed: seed} },
		lift(BaselineNoStartupSync))

	RegisterFunc("single-domain",
		"A2 ablation: plain single-domain gPTP vs the multi-domain FTA under one Byzantine GM",
		func(seed int64) BaselineConfig { return BaselineConfig{Seed: seed} },
		lift(AblationSingleDomainVsFTA))

	RegisterFunc("flag-policy",
		"A3 ablation: FTSHMEM validity-flag policies (monitor vs exclude) under one Byzantine GM",
		func(seed int64) BaselineConfig { return BaselineConfig{Seed: seed} },
		lift(AblationFlagPolicy))

	RegisterFunc("bmca",
		"A4 ablation: BMCA grandmaster re-election gap vs static external port configuration",
		func(seed int64) BMCAReconvergenceConfig { return BMCAReconvergenceConfig{Seed: seed} },
		lift(BMCAReconvergence))

	RegisterFunc("voting",
		"A5 ablation: 2f+1 fail-consistent monitor voting vs freshness-only detection",
		func(seed int64) VotingConfig { return VotingConfig{Seed: seed} },
		lift(VotingFailover))

	RegisterFunc("recovery",
		"§IV future work: GNU/Linux vs unikernel reboot time → redundancy exposure",
		func(seed int64) RecoveryConfig { return RecoveryConfig{Seed: seed} },
		lift(RecoveryComparison))

	RegisterFunc("interval",
		"synchronization-interval sweep: the Γ = 2·r_max·S bound/precision trade-off",
		func(seed int64) IntervalSweepConfig { return IntervalSweepConfig{Seed: seed} },
		lift(IntervalSweep))

	RegisterFunc("domains",
		"domain-count sweep: Byzantine masking across M = 2, 3, 4 domains",
		func(seed int64) DomainSweepConfig { return DomainSweepConfig{Seed: seed} },
		lift(DomainSweep))

	RegisterFunc("dynamic",
		"fully dynamic 802.1AS over the redundant mesh: re-election outage end to end",
		func(seed int64) DynamicMeshConfig { return DynamicMeshConfig{Seed: seed} },
		lift(DynamicMeshStudy))

	RegisterFunc("onestep",
		"one-step vs two-step Sync through a relay: accuracy parity at half the event traffic",
		func(seed int64) OneStepStudyConfig { return OneStepStudyConfig{Seed: seed} },
		lift(OneStepStudy))

	RegisterFunc("tas",
		"TSN egress (802.1Qbv + preemption) vs commodity FIFO under best-effort bursts",
		func(seed int64) TASStudyConfig { return TASStudyConfig{Seed: seed} },
		lift(TASStudy))

	RegisterFunc("netchaos",
		"network chaos campaign: burst-loss and partition scenario plans vs the precision bounds, with servo holdover",
		func(seed int64) NetworkChaosConfig { return NetworkChaosConfig{Seed: seed} },
		lift(NetworkChaos))

	RegisterFunc("attacks",
		"adversarial campaign: Byzantine GM falsification and on-path Sync delay attacks vs the analytic 2f+1 resilience bound",
		func(seed int64) AttacksConfig { return AttacksConfig{Seed: seed} },
		lift(Attacks))

	RegisterFunc("wansites",
		"wide-area campaign: site failures and WAN asymmetry vs the site-level min(f, ⌊(N−1)/2⌋) quorum, with cross-site holdover",
		func(seed int64) WanSitesConfig { return WanSitesConfig{Seed: seed} },
		lift(WanSites))

	RegisterFunc("multiseed",
		"the headline fault-injection result re-run across independent seeds",
		func(seed int64) MultiSeedConfig { return MultiSeedConfig{CampaignSeed: seed, SeedCount: 5} },
		lift(MultiSeedValidation))
}
