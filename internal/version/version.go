// Package version derives the build's identity from the information the
// Go toolchain embeds into every binary (debug.ReadBuildInfo): the main
// module's version and, when the build happened inside a VCS checkout
// with stamping enabled, the revision and dirty flag.
//
// Two render forms exist for two different jobs:
//
//   - String() is the human form every CLI prints for -version;
//   - Stamp() is the compact machine form embedded into result-cache
//     keys and summary.json. Verdicts are pure functions of
//     (scenario, profile, options, code version), so the stamp is the
//     fourth key dimension: a new revision invalidates cached results
//     without touching the first three.
//
// Both are computed once and constant for the life of the process, so
// every artifact one binary writes carries the same stamp — the
// byte-identity guarantees (same tree at any worker count)
// hold within a build, which is the only place they are ever checked.
package version

import (
	"runtime/debug"
	"sync"
)

// Info is the decoded build identity.
type Info struct {
	// Module is the main module path.
	Module string `json:"module"`
	// Version is the main module version ("(devel)" for workspace
	// builds, a semver tag for released ones).
	Version string `json:"version"`
	// Revision is the VCS commit hash, when stamped ("" otherwise).
	Revision string `json:"revision,omitempty"`
	// Dirty reports uncommitted changes at build time.
	Dirty bool `json:"dirty,omitempty"`
	// Go is the toolchain version that built the binary.
	Go string `json:"go"`
}

var (
	once sync.Once
	info Info
)

// Get returns the build identity, decoding it on first use.
func Get() Info {
	once.Do(func() {
		info = Info{Module: "github.com/lumina-sim/lumina", Version: "(devel)"}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		info.Go = bi.GoVersion
		if bi.Main.Path != "" {
			info.Module = bi.Main.Path
		}
		if bi.Main.Version != "" {
			info.Version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info.Revision = s.Value
			case "vcs.modified":
				info.Dirty = s.Value == "true"
			}
		}
	})
	return info
}

// Stamp is the compact build stamp embedded in cache keys and
// summary.json: the 12-hex-digit VCS revision ("rev12" or
// "rev12.dirty") when the build was stamped, otherwise the module
// version ("(devel)" for unstamped test binaries). The revision IS the
// code identity — the toolchain's pseudo-version is derived from it —
// so repeating it would only bloat the key. It contains no wall-clock
// component: two builds of the same commit produce the same stamp.
//
// Caveat: every dirty build of the same commit shares one ".dirty"
// stamp, so a developer iterating with uncommitted changes should point
// the cache at a scratch directory (or clear it) between behavioural
// edits — the same blind spot Go's own "+dirty" pseudo-versions have.
func Stamp() string {
	i := Get()
	if i.Revision == "" {
		return i.Version
	}
	rev := i.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if i.Dirty {
		return rev + ".dirty"
	}
	return rev
}

// String is the human -version form: module, version, revision and
// toolchain.
func String() string {
	i := Get()
	s := i.Module + " " + i.Version
	if i.Revision != "" && Stamp() != i.Version {
		s += " (" + Stamp() + ")"
	}
	if i.Go != "" {
		s += " " + i.Go
	}
	return s
}
