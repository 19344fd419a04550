package corpus

import (
	"math/cmplx"
	"testing"

	"vase/internal/mna"
)

// compareFastRun checks a SolverFast run against the reference under the
// fast tier's contract: DC, transient and AC within the ErrorBudget, and
// outcomes one-directionally total (fast must not fail where the reference
// succeeds). The AC sweep never goes through the chord Newton machinery —
// in fast mode it runs the exact tier's own factorization — but it
// linearizes the devices around the fast tier's DC operating point, so its
// output inherits the budget contract rather than bit-identity.
func compareFastRun(t *testing.T, label string, ref, fast *solverRun) {
	t.Helper()
	var budget mna.ErrorBudget
	if ref.dcErr == "" {
		if fast.dcErr != "" {
			t.Fatalf("%s: fast DC fails where reference succeeds: %q", label, fast.dcErr)
		}
		if err := budget.CompareSolution(ref.dc, fast.dc); err != nil {
			t.Fatalf("%s: DC outside budget: %v", label, err)
		}
	}
	if ref.dcErr == "" && ref.trErr == "" {
		if fast.trErr != "" {
			t.Fatalf("%s: fast transient fails where reference succeeds: %q", label, fast.trErr)
		}
		d, err := budget.CompareTran(ref.tr, fast.tr)
		if err != nil {
			t.Fatalf("%s: transient outside budget: %v", label, err)
		}
		t.Logf("%s: %s", label, d)
	}
	if ref.acErr != fast.acErr {
		t.Fatalf("%s: AC error %q, reference %q", label, fast.acErr, ref.acErr)
	}
	if (ref.ac == nil) != (fast.ac == nil) {
		t.Fatalf("%s: AC presence mismatch", label)
	}
	if ref.ac == nil {
		return
	}
	if len(ref.ac.Freqs) != len(fast.ac.Freqs) {
		t.Fatalf("%s: AC sweep length %d, reference %d", label, len(fast.ac.Freqs), len(ref.ac.Freqs))
	}
	for n := 1; n <= ref.nodes; n++ {
		rw, gw := ref.ac.V[mna.Node(n)], fast.ac.V[mna.Node(n)]
		for i := range rw {
			diff, mag := cmplx.Abs(gw[i]-rw[i]), cmplx.Abs(rw[i])
			if diff > mna.DefaultAbsTol+mna.DefaultRelTol*mag {
				t.Fatalf("%s: AC node %d point %d outside budget: %v, reference %v (|diff|=%.3g)",
					label, n, i, gw[i], rw[i], diff)
			}
		}
	}
}

// TestFastTierWithinBudget pins the SolverFast contract corpus-wide: for
// every benchmark application and both integration methods, the fast
// tier's DC operating point and transient trace stay within the default
// ErrorBudget of SolverReference. (Seeded generator specs get the same
// treatment in internal/gen: TestFastTierSeededSpecs and the campaign's
// "fast" pair.)
func TestFastTierWithinBudget(t *testing.T) {
	for _, app := range Applications() {
		app := app
		t.Run(app.Key, func(t *testing.T) {
			b, err := buildDefault(app)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			for _, method := range []mna.Method{mna.BackwardEuler, mna.Trapezoidal} {
				methodName := "be"
				if method == mna.Trapezoidal {
					methodName = "trap"
				}
				ref := runSolverMode(t, b, app.Key, mna.SolverReference, method, 1)
				fast := runSolverMode(t, b, app.Key, mna.SolverFast, method, 1)
				compareFastRun(t, methodName, ref, fast)
			}
		})
	}
}

// TestFastTierDeterministic pins the property that makes fast-tier results
// cacheable: repeated fast runs are byte-identical, including across AC
// worker counts (the transient is single-threaded; the parallel AC sweep
// must not perturb it).
func TestFastTierDeterministic(t *testing.T) {
	for _, app := range Applications() {
		app := app
		t.Run(app.Key, func(t *testing.T) {
			b, err := buildDefault(app)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			first := runSolverMode(t, b, app.Key, mna.SolverFast, mna.BackwardEuler, 1)
			again := runSolverMode(t, b, app.Key, mna.SolverFast, mna.BackwardEuler, 1)
			compareRuns(t, "rerun", first, again)
			workers := runSolverMode(t, b, app.Key, mna.SolverFast, mna.BackwardEuler, 8)
			compareRuns(t, "workers=8", first, workers)
		})
	}
}
