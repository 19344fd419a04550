package mna

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

// feedbackChain builds a cascade of closed-loop inverting amplifier stages
// with compensation capacitors — the same structure Elaborate produces for
// synthesized gain chains, and the circuit class the fast tier's budget
// contract is written for — with every other stage loaded by a switch to
// ground that closes once its output passes 1 V. (activeChain, by contrast, is
// a deliberately ill-behaved open-loop stress case for pivoting; high-gain
// open loops are Newton-multistable and no two solvers are obliged to agree
// on them beyond the exact tier's bit-replay.)
func feedbackChain(stages int) *Circuit {
	c := New()
	in := c.NodeByName("in")
	c.AddV("vin", in, Ground, func(t float64) float64 {
		return 1.2 * math.Sin(2*math.Pi*1e3*t)
	})
	prev := in
	for i := 0; i < stages; i++ {
		sum := c.NodeByName(fmt.Sprintf("s%d", i))
		out := c.NodeByName(fmt.Sprintf("o%d", i))
		c.AddR(fmt.Sprintf("ri%d", i), prev, sum, 1e4)
		c.AddR(fmt.Sprintf("rf%d", i), sum, out, 1.1e4)
		c.AddC(fmt.Sprintf("cc%d", i), sum, out, 100e-12, 0)
		c.AddOpAmp(fmt.Sprintf("op%d", i), out, Ground, sum, 1e4, 4)
		if i%2 == 1 {
			c.AddSwitch(fmt.Sprintf("sl%d", i), out, Ground, out, Ground, 1e3, 1e9, 1)
		}
		prev = out
	}
	return c
}

// runTran runs the feedback chain's transient in the given mode.
func runTran(t *testing.T, stages int, mode SolverMode) (*Circuit, *Tran) {
	t.Helper()
	c := feedbackChain(stages)
	c.Solver = mode
	tr, err := c.Transient(2e-3, 1e-6)
	if err != nil {
		t.Fatalf("mode %d transient: %v", mode, err)
	}
	return c, tr
}

// TestFastTierTranWithinBudget pins the fast tier's core contract on the
// active chain: every trace point within the default error budget of the
// reference, over a window long enough to exercise load switching, op-amp
// saturation and factorization reuse across thousands of steps.
func TestFastTierTranWithinBudget(t *testing.T) {
	for _, stages := range []int{2, 7} { // a small and a large plan
		_, ref := runTran(t, stages, SolverReference)
		c, got := runTran(t, stages, SolverFast)
		diff, err := ErrorBudget{}.CompareTran(ref, got)
		if err != nil {
			t.Fatalf("stages=%d: %v", stages, err)
		}
		if diff.Points == 0 {
			t.Fatalf("stages=%d: no points compared", stages)
		}
		st := c.SolverStats()
		if st.FactorReuses == 0 {
			t.Errorf("stages=%d: no factorization reuse — the chord path never engaged (stats %v)", stages, st)
		}
		if st.Orderings == 0 {
			t.Errorf("stages=%d: no symbolic ordering recorded", stages)
		}
		t.Logf("stages=%d: %v; stats: %v", stages, diff, st)
	}
}

// TestFastTierDCWithinBudget checks the operating point against the
// reference under the budget.
func TestFastTierDCWithinBudget(t *testing.T) {
	ref := activeChain(6)
	ref.Solver = SolverReference
	want, err := ref.DC()
	if err != nil {
		t.Fatal(err)
	}
	c := activeChain(6)
	c.Solver = SolverFast
	got, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	if err := (ErrorBudget{}).CompareSolution(want, got); err != nil {
		t.Fatal(err)
	}
}

// TestFastTierDeterministic pins run-to-run byte-identity: the fast tier is
// not bit-exact against the reference, but it is exactly reproducible with
// itself — the property that makes its results cacheable.
func TestFastTierDeterministic(t *testing.T) {
	_, a := runTran(t, 7, SolverFast)
	_, b := runTran(t, 7, SolverFast)
	if len(a.Time) != len(b.Time) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Time), len(b.Time))
	}
	for n, aw := range a.V {
		bw := b.V[n]
		for i := range aw {
			if math.Float64bits(aw[i]) != math.Float64bits(bw[i]) {
				t.Fatalf("node %d sample %d: %x vs %x", n, i, math.Float64bits(aw[i]), math.Float64bits(bw[i]))
			}
		}
	}
}

// TestFastTierReusesFactorizations pins the chord-Newton economics: across
// a transient the factorization count must be far below the iteration
// count, and reuses must dominate.
func TestFastTierReusesFactorizations(t *testing.T) {
	c, _ := runTran(t, 7, SolverFast)
	st := c.SolverStats()
	if st.Factorizations*4 > st.NewtonIterations {
		t.Errorf("factorizations %d vs %d iterations: reuse is not engaging (stats %v)",
			st.Factorizations, st.NewtonIterations, st)
	}
	if st.FactorReuses < st.Factorizations {
		t.Errorf("reuses %d < factorizations %d: expected reuse to dominate", st.FactorReuses, st.Factorizations)
	}
}

// TestFastTierZeroAllocsWarm pins the steady state: once ordered and
// factored, a fast-tier Newton solve (assemble, staleness check, residual,
// triangular solves, update) allocates nothing.
func TestFastTierZeroAllocsWarm(t *testing.T) {
	c := activeChain(7)
	c.Solver = SolverFast
	solve, dim := c.pointSolver(context.Background())
	dst := make(Solution, dim+1)
	zero := make(Solution, dim+1)
	for i := 0; i < 3; i++ {
		if _, err := solve(dst, zero, zero, 0, 1e-6); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := solve(dst, zero, zero, 0, 1e-6); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm fast-tier Newton solve: %v allocs/op, want 0", allocs)
	}
}

// TestFastTierSingularDetected mirrors the exact tier's singularity
// contract: a floating node is reported, not silently mis-solved.
func TestFastTierSingularDetected(t *testing.T) {
	c := New()
	a := c.NodeByName("a")
	b := c.NodeByName("b")
	c.AddR("r1", a, Ground, 1e3)
	c.AddR("r2", b, b, 1e3) // node b floats
	c.Solver = SolverFast
	if _, err := c.DC(); err == nil || !strings.Contains(err.Error(), "singular") {
		t.Fatalf("DC error = %v, want singular-matrix diagnosis", err)
	}
}

// TestCompareTranSkewAllowance pins the one-sample event-skew rule: a
// full-amplitude single-sample difference that matches a neighboring
// reference sample is counted as skew, not failure — and a two-sample shift
// still fails.
func TestCompareTranSkewAllowance(t *testing.T) {
	mk := func(vals []float64) *Tran {
		time := make([]float64, len(vals))
		for i := range time {
			time[i] = float64(i) * 1e-6
		}
		return &Tran{Time: time, V: map[Node][]float64{1: vals}}
	}
	ref := mk([]float64{0, 0, 0, 5, 5, 5})
	early := mk([]float64{0, 0, 5, 5, 5, 5}) // switches one sample early
	diff, err := (ErrorBudget{}).CompareTran(ref, early)
	if err != nil {
		t.Fatalf("one-sample skew rejected: %v", err)
	}
	if diff.Skewed != 1 {
		t.Errorf("Skewed = %d, want 1 (%v)", diff.Skewed, diff)
	}
	if diff.MaxAbs != 0 {
		t.Errorf("MaxAbs = %g: skewed points must not pollute the max stats", diff.MaxAbs)
	}
	twoEarly := mk([]float64{0, 5, 5, 5, 5, 5})
	if _, err := (ErrorBudget{}).CompareTran(ref, twoEarly); err == nil {
		t.Error("two-sample skew accepted, want budget violation")
	}
}

// TestCompareTranShapeMismatch pins the strict-shape half of the contract.
func TestCompareTranShapeMismatch(t *testing.T) {
	a := &Tran{Time: []float64{0, 1}, V: map[Node][]float64{1: {0, 0}}}
	b := &Tran{Time: []float64{0}, V: map[Node][]float64{1: {0}}}
	if _, err := (ErrorBudget{}).CompareTran(a, b); err == nil {
		t.Error("length mismatch accepted")
	}
	c := &Tran{Time: []float64{0, 1}, V: map[Node][]float64{1: {0, 0}}, Truncated: true}
	if _, err := (ErrorBudget{}).CompareTran(a, c); err == nil {
		t.Error("truncation mismatch accepted")
	}
}

// TestErrorBudgetCanonical pins the cache-key form: defaults filled, hex
// exact, sensitive to every field.
func TestErrorBudgetCanonical(t *testing.T) {
	def := ErrorBudget{}.Canonical()
	if def != (ErrorBudget{RelTol: DefaultRelTol, AbsTol: DefaultAbsTol}).Canonical() {
		t.Errorf("zero budget canonical %q does not equal explicit defaults", def)
	}
	loose := ErrorBudget{RelTol: 1e-2}.Canonical()
	if loose == def {
		t.Errorf("RelTol change did not change the canonical form %q", def)
	}
}

// BenchmarkMNASolveFast is the fast-tier row of BenchmarkMNASolve: one warm
// solve on the same chain, for direct ns/op comparison with the exact
// tiers.
func BenchmarkMNASolveFast(b *testing.B) {
	c := activeChain(7)
	c.Solver = SolverFast
	solve, dim := c.pointSolver(context.Background())
	dst := make(Solution, dim+1)
	zero := make(Solution, dim+1)
	for i := 0; i < 3; i++ {
		if _, err := solve(dst, zero, zero, 0, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(dst, zero, zero, 0, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}
