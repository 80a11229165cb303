// Package attack models the paper's cyber-resilience experiment (§III-B):
// an attacker holding restricted user credentials on a subset of virtual
// grandmasters attempts a local privilege-escalation exploit
// (CVE-2018-18955 against Linux v4.19.1 in the paper). The exploit succeeds
// exactly when the target VM's kernel version is vulnerable — which is the
// OS-diversity dimension the experiment varies — and, on success, the
// attacker replaces the benign ptp4l instances with malicious ones that
// distribute preciseOriginTimestamps shifted by −24 µs.
package attack

import (
	"fmt"
	"sort"
)

// Default identifiers used throughout the experiments.
const (
	// CVE201818955 is the paper's exploit: a map_write() bug in Linux
	// user-namespace handling enabling local privilege escalation.
	CVE201818955 = "CVE-2018-18955"
	// VulnerableKernel is the kernel version the paper installs on the
	// attackable grandmasters.
	VulnerableKernel = "v4.19.1"
	// MaliciousOriginOffsetNS is the falsification the paper's malicious
	// ptp4l applies (−24 µs).
	MaliciousOriginOffsetNS = -24000
)

// VulnDB maps CVE identifiers to the set of kernel versions they affect.
type VulnDB map[string]map[string]bool

// DefaultVulnDB returns a database covering the paper's scenario: the
// user-namespace escalation affects v4.19.1 (and the surrounding 4.15–4.19
// series before the fix), while the diversified kernels are patched.
func DefaultVulnDB() VulnDB {
	return VulnDB{
		CVE201818955: {
			"v4.15.0": true,
			"v4.18.0": true,
			"v4.19.0": true,
			"v4.19.1": true,
		},
	}
}

// Vulnerable reports whether a kernel version is affected by a CVE.
func (db VulnDB) Vulnerable(cve, kernel string) bool {
	return db[cve][kernel]
}

// AddVulnerability records an affected kernel version.
func (db VulnDB) AddVulnerability(cve, kernel string) {
	if db[cve] == nil {
		db[cve] = make(map[string]bool)
	}
	db[cve][kernel] = true
}

// SharedVulnerabilities counts the CVEs affecting both kernels — the metric
// from the OS-diversity study (Garcia et al.) that motivates diversifying
// grandmaster software stacks.
func (db VulnDB) SharedVulnerabilities(kernelA, kernelB string) int {
	n := 0
	for _, affected := range db {
		if affected[kernelA] && affected[kernelB] {
			n++
		}
	}
	return n
}

// Target is the attacker's view of one virtual grandmaster: something with
// a kernel version that can be compromised.
type Target interface {
	// TargetName identifies the VM (e.g. "c11").
	TargetName() string
	// KernelVersion reports the guest kernel.
	KernelVersion() string
	// InstallMaliciousPTP4L replaces the benign ptp4l instances; the
	// malicious ones shift every distributed preciseOriginTimestamp by
	// offsetNS.
	InstallMaliciousPTP4L(offsetNS float64)
}

// Result records one exploit attempt.
type Result struct {
	Target  string
	Kernel  string
	CVE     string
	Success bool
}

// String formats the result for the event log.
func (r Result) String() string {
	verdict := "failed (kernel not vulnerable)"
	if r.Success {
		verdict = "root obtained, malicious ptp4l installed"
	}
	return fmt.Sprintf("exploit %s on %s (%s): %s", r.CVE, r.Target, r.Kernel, verdict)
}

// Attacker holds restricted user credentials on a set of VMs and a single
// local-privilege-escalation exploit.
type Attacker struct {
	db          VulnDB
	cve         string
	credentials map[string]bool
	results     []Result
}

// NewAttacker creates an attacker with credentials on the named VMs.
func NewAttacker(db VulnDB, cve string, credentials ...string) *Attacker {
	creds := make(map[string]bool, len(credentials))
	for _, c := range credentials {
		creds[c] = true
	}
	return &Attacker{db: db, cve: cve, credentials: creds}
}

// HasCredentials reports whether the attacker can log into the VM at all.
func (a *Attacker) HasCredentials(vm string) bool { return a.credentials[vm] }

// Exploit attempts privilege escalation on the target and, on success,
// installs the malicious ptp4l with the given origin-timestamp shift.
func (a *Attacker) Exploit(t Target, offsetNS float64) Result {
	r := Result{Target: t.TargetName(), Kernel: t.KernelVersion(), CVE: a.cve}
	if a.credentials[t.TargetName()] && a.db.Vulnerable(a.cve, t.KernelVersion()) {
		r.Success = true
		t.InstallMaliciousPTP4L(offsetNS)
	}
	a.results = append(a.results, r)
	return r
}

// Results returns all attempts in order.
func (a *Attacker) Results() []Result {
	return append([]Result(nil), a.results...)
}

// Compromised lists the names of successfully compromised targets, sorted.
func (a *Attacker) Compromised() []string {
	var out []string
	for _, r := range a.results {
		if r.Success {
			out = append(out, r.Target)
		}
	}
	sort.Strings(out)
	return out
}
