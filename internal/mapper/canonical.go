package mapper

import "fmt"

// Canonical returns a deterministic encoding of every option field that can
// change the synthesized netlist, for cache-key derivation (DESIGN.md §10).
//
// Three fields are deliberately excluded — Workers, MaxNodes and Trace —
// because by the determinism contract (§7, §9) they cannot change a
// completed result: Workers is ignored, and a node budget, like a context
// deadline, can only truncate the search, which tags the result Nonoptimal
// — and Nonoptimal results are never cached. Trace searches the design as
// one part and returns the same mapping as the untraced parts search; it
// only annotates the run with a decision tree, and traced runs bypass the
// cache entirely so the tree is always fresh.
//
// Every other field — including nested Process, System and Patterns
// options — is encoded. The reflection test in internal/pipeline
// (TestCacheKeySensitivity) enforces that any field added to Options in the
// future is either encoded here or consciously added to the exemption list.
func (o Options) Canonical() string {
	return fmt.Sprintf("obj=%d|proc{%s}|sys{%s}|pat{%s}|noseq=%t|nobound=%t|noshare=%t|firstfit=%t|strong=%t|maxarea=%g|maxpower=%g|maxopamps=%d",
		int(o.Objective), o.Process.Canonical(), o.System.Canonical(), o.Patterns.Canonical(),
		o.NoSequencing, o.NoBounding, o.NoSharing, o.FirstFit, o.StrongBound,
		o.MaxAreaUm2, o.MaxPowerMW, o.MaxOpAmps)
}
