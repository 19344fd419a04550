package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strconv"

	"vase/internal/library"
	"vase/internal/lint"
	"vase/internal/mapper"
	"vase/internal/mna"
	"vase/internal/patterns"
)

// Key is a content-addressed cache key: the SHA-256 over a domain tag, the
// canonical input artifact, the canonically-encoded stage options and the
// fingerprints of whatever libraries the stage consults. Equal keys denote
// equal stage outputs (byte-determinism, PR 1); any input change — one
// character of source, one option field that can affect the result, one
// library cell — changes the key.
type Key [sha256.Size]byte

// String returns the key as lowercase hex (the disk artifact basename).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// keyOf hashes the parts with length prefixes, so part boundaries are
// unambiguous ("ab","c" never collides with "a","bc").
func keyOf(parts ...string) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Key-domain tags. The version suffix is bumped when a stage's output
// format or semantics change, invalidating older artifacts.
const (
	recoverDomain  = "vase/parse-recover/v1"
	semaDomain     = "vase/sema/v1"
	unitDomain     = "vase/sema-unit/v1"
	compileDomain  = "vase/compile/v1"
	lintSrcDomain  = "vase/lint-src/v1"
	lintVHIFDomain = "vase/lint-vhif/v1"
	rangesDomain   = "vase/ranges/v1"
	mapDomain      = "vase/map/v1"
	spiceDomain    = "vase/spice/v1"
)

// ParseRecoverKey is the content address of an error-recovering parse of one
// named source text.
func ParseRecoverKey(name, text string) Key {
	return keyOf(recoverDomain, name, text)
}

// ProjectUnitKey is the content address of a per-unit sema run in a
// multi-file project. Callers (internal/project) compose it from everything
// the unit's analysis can observe: the environment fingerprint (package
// sources in order), the entity's file/offset/text and the architecture's
// file/offset/text. The offsets matter because the cached Design carries
// byte spans into its files.
func ProjectUnitKey(parts ...string) Key {
	return keyOf(append([]string{unitDomain}, parts...)...)
}

// CompileKey is the content address of the front end's output (the VHIF
// module plus Table 1 metrics) for one named source text. The front end has
// no options and consults no libraries, so the key covers the source alone.
func CompileKey(name, text string) Key {
	return keyOf(compileDomain, name, text)
}

// LintSourceKey is the content address of a source-level lint run: the
// source, the pass selection, and the analyzer registry fingerprint (so
// adding or changing a pass invalidates cached findings).
func LintSourceKey(name, text string, opts lint.Options) Key {
	return keyOf(lintSrcDomain, name, text, opts.Canonical(), lint.Fingerprint())
}

// LintVHIFKey is LintSourceKey for module-level lint over serialized VHIF.
func LintVHIFKey(name, text string, opts lint.Options) Key {
	return keyOf(lintVHIFDomain, name, text, opts.Canonical(), lint.Fingerprint())
}

// RangesKey is the content address of a value-range analysis result for one
// serialized VHIF module. The analysis has no options and consults no
// libraries; the domain tag's version is bumped whenever the abstract
// domains or transfer functions change, invalidating older range facts.
func RangesKey(vhifText string) Key {
	return keyOf(rangesDomain, vhifText)
}

// SpiceKey is the content address of a circuit-level transient simulation:
// the encoded netlist, the input waveform specs (wavespec grammar) sorted
// by port name, the analysis window in hex-exact form, and the solver
// tier with its error budget. The two bit-identical tiers — exact and
// reference — deliberately share the single tag "exact", because
// byte-equal outputs deserve one cache slot; only SolverFast gets its own
// tag, and only its tag embeds the budget, since the exact tiers never
// consult it.
func SpiceKey(netlistData string, inputs map[string]string, tstop, tstep float64, solver mna.SolverMode, budget mna.ErrorBudget) Key {
	names := make([]string, 0, len(inputs))
	for n := range inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names)+5)
	parts = append(parts, spiceDomain, netlistData)
	for _, n := range names {
		parts = append(parts, n+"="+inputs[n])
	}
	tier := "exact"
	if solver == mna.SolverFast {
		tier = "fast " + budget.Canonical()
	}
	parts = append(parts,
		strconv.FormatFloat(tstop, 'x', -1, 64),
		strconv.FormatFloat(tstep, 'x', -1, 64),
		tier)
	return keyOf(parts...)
}

// MapKey is the content address of an architecture-generation result: the
// serialized VHIF input, the canonical synthesis options (result-neutral
// fields — Workers, Deadline, MaxNodes, Trace — excluded; see
// mapper.Options.Canonical), and the fingerprints of the cell library and
// the pattern-generation rules the search draws candidates from.
func MapKey(vhifText string, opts mapper.Options) Key {
	return keyOf(mapDomain, vhifText, opts.Canonical(),
		library.Fingerprint(), patterns.Fingerprint())
}
