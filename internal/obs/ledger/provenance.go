package ledger

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"spacesim/internal/gravity"
	"spacesim/internal/obs"
)

// Provenance identifies the binary and host that produced a run: the VCS
// revision and go toolchain baked in by the build (runtime/debug.ReadBuildInfo)
// plus the host fingerprint that decides whether two runs' host-timed
// metrics are comparable at all.
type Provenance struct {
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
	Hostname    string `json:"hostname"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	// KernelISA names the force-kernel bodies the process runs
	// (gravity.KernelISA: "avx512", "avx2" or "go"). It decides a 2-10x factor in
	// every kernel-bound host figure, so it is recorded and printed — but
	// kept out of HostKey, so series recorded before the field existed
	// still trend against this host.
	KernelISA string `json:"kernel_isa,omitempty"`
	// ConfigDigest is filled when a Provenance block is stamped into an
	// artifact, tying the artifact back to its ledger key. Empty on the
	// process-level Prov() value.
	ConfigDigest string `json:"config_digest,omitempty"`
}

var (
	provOnce sync.Once
	provVal  Provenance
)

// Prov returns the current process's provenance, computed once.
func Prov() Provenance {
	provOnce.Do(func() {
		p := Provenance{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			KernelISA:  gravity.KernelISA(),
		}
		if host, err := os.Hostname(); err == nil {
			p.Hostname = host
		}
		if bi, ok := debug.ReadBuildInfo(); ok {
			if bi.GoVersion != "" {
				p.GoVersion = bi.GoVersion
			}
			for _, s := range bi.Settings {
				switch s.Key {
				case "vcs.revision":
					p.VCSRevision = s.Value
				case "vcs.time":
					p.VCSTime = s.Value
				case "vcs.modified":
					p.VCSModified = s.Value == "true"
				}
			}
		}
		provVal = p
	})
	return provVal
}

// HostKey is the comparability key for host-timed metrics: two runs with
// different HostKeys must not be trended or diffed against each other
// without an explicit cross-machine override.
func (p Provenance) HostKey() string {
	return p.Hostname + "/" + p.GOOS + "-" + p.GOARCH + "/c" + strconv.Itoa(p.NumCPU)
}

// ShortRev returns an abbreviated VCS revision for display.
func (p Provenance) ShortRev() string {
	rev := p.VCSRevision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if rev != "" && p.VCSModified {
		rev += "+dirty"
	}
	return rev
}

// String renders the provenance as a one-line human summary.
func (p Provenance) String() string {
	var b strings.Builder
	b.WriteString(p.GoVersion)
	if rev := p.ShortRev(); rev != "" {
		b.WriteString(" rev ")
		b.WriteString(rev)
	}
	fmt.Fprintf(&b, " on %s (%s, %d cpus, gomaxprocs %d",
		p.Hostname, p.GOOS+"/"+p.GOARCH, p.NumCPU, p.GOMAXPROCS)
	if p.KernelISA != "" {
		b.WriteString(", kernels ")
		b.WriteString(p.KernelISA)
	}
	b.WriteString(")")
	return b.String()
}

// Stamp publishes the provenance as the build.info Text metric so the
// Prometheus exposition carries a spacesim_build_info info gauge. Registry
// writes never touch virtual time, so stamping is invisible to
// bit-identity.
func (p Provenance) Stamp(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Text("build.info").Set(fmt.Sprintf(
		"go_version=%s vcs_revision=%s vcs_modified=%t hostname=%s goos=%s goarch=%s gomaxprocs=%d",
		p.GoVersion, p.VCSRevision, p.VCSModified, p.Hostname, p.GOOS, p.GOARCH, p.GOMAXPROCS))
}

// SameHost reports whether two provenances describe comparable hosts.
func SameHost(a, b Provenance) bool { return a.HostKey() == b.HostKey() }

// PeakRSSBytes returns the process's peak resident set (VmHWM) in bytes,
// or 0 where /proc is unavailable. Linux-only by design: the bench CLIs
// record it as a headline metric when present.
func PeakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
