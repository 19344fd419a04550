// Package solveropt is the one shared parser for the user-facing MNA solver
// tier selection. Every tool that exposes a -solver flag (vasesim,
// vasebench) and every service field that names a tier (vased /v1/simulate)
// resolves the string here, so the accepted names and the error text cannot
// drift between entry points.
//
// The tool vocabulary is the engine's own set of tiers, named by
// mna.SolverMode's String method:
//
//	reference — the textbook dense solver, the semantic ground truth
//	exact     — the planned CSR engine, bit-identical to reference
//	fast      — the tolerance-tier engine, within an ErrorBudget of reference
package solveropt

import (
	"fmt"

	"vase/internal/mna"
)

// Names lists the accepted -solver values, in documentation order.
func Names() []string { return []string{"reference", "exact", "fast"} }

// Parse resolves a user-supplied tier name.
func Parse(s string) (mna.SolverMode, error) {
	switch s {
	case "reference":
		return mna.SolverReference, nil
	case "exact":
		return mna.SolverAuto, nil
	case "fast":
		return mna.SolverFast, nil
	}
	return mna.SolverAuto, fmt.Errorf("unknown solver %q (valid: reference, exact, fast)", s)
}

// Flag is a flag.Value for a solver tier, so every CLI binds the same
// parser:
//
//	mode := mna.SolverAuto
//	flag.Var(solveropt.Flag{Mode: &mode}, "solver", solveropt.Usage)
//
// With the standard ExitOnError flag set, an unknown name prints the valid
// list and exits 2 — the tools' usage-error exit code.
type Flag struct{ Mode *mna.SolverMode }

// Usage is the shared help text for -solver flags.
const Usage = "MNA solver tier: reference | exact (bit-identical, planned) | fast (within -reltol/-abstol of reference)"

func (f Flag) String() string {
	if f.Mode == nil {
		return mna.SolverAuto.String()
	}
	return f.Mode.String()
}

func (f Flag) Set(s string) error {
	m, err := Parse(s)
	if err != nil {
		return err
	}
	*f.Mode = m
	return nil
}
