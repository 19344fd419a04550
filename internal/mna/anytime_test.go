// Tests for the anytime/budget contract of the MNA engine (cancellation,
// step and iteration budgets) and the scaled pivot regression.
package mna

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

// TestNanoConductancePivot locks the scaled singularity test: a perfectly
// well-conditioned voltage divider built from 10-petaohm resistors stamps
// conductances of 1e-16 S, which the old absolute 1e-15 pivot threshold
// misclassified as a singular matrix.
func TestNanoConductancePivot(t *testing.T) {
	c := New()
	top := c.NodeByName("top")
	mid := c.NodeByName("mid")
	c.AddV("vs", top, Ground, func(float64) float64 { return 1 })
	c.AddR("r1", top, mid, 1e16)
	c.AddR("r2", mid, Ground, 1e16)
	sol, err := c.DC()
	if err != nil {
		t.Fatalf("nano-conductance divider reported as unsolvable: %v", err)
	}
	if got := sol.V(mid); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("V(mid) = %g, want 0.5", got)
	}
}

// TestScaledPivotStillDetectsSingular checks the relative threshold has not
// weakened the floating-node diagnosis: two nodes joined only by a resistor
// have no DC path to ground, and stay a structured singular-matrix error.
func TestScaledPivotStillDetectsSingular(t *testing.T) {
	c := New()
	c.AddR("r1", c.NodeByName("fa"), c.NodeByName("fb"), 1e3)
	_, err := c.DC()
	if err == nil {
		t.Fatal("expected singular matrix error")
	}
	if !strings.Contains(err.Error(), "singular") {
		t.Errorf("error %q does not mention singularity", err)
	}
}

// rcCircuit builds a driven RC low-pass (tau = 1 ms).
func rcCircuit() (*Circuit, Node) {
	c := New()
	in := c.NodeByName("in")
	out := c.NodeByName("out")
	c.AddV("vs", in, Ground, func(float64) float64 { return 1 })
	c.AddR("r", in, out, 1e3)
	c.AddC("c", out, Ground, 1e-6, 0)
	return c, out
}

func TestMaxTranStepsTruncates(t *testing.T) {
	c, _ := rcCircuit()
	c.MaxTranSteps = 10
	tr, err := c.Transient(1e-3, 1e-6) // would be 1000 steps unbounded
	if err != nil {
		t.Fatalf("transient: %v", err)
	}
	if !tr.Truncated {
		t.Error("step budget bound but Truncated not set")
	}
	if got := len(tr.Time); got != 11 { // t=0 plus 10 steps
		t.Errorf("recorded %d samples, want 11", got)
	}
}

func TestTransientDeadlineReturnsPartialTrace(t *testing.T) {
	// 1e9 steps: unbounded this would run for hours. 1e12 steps once asked
	// the sample preallocation for terabytes before the first step.
	for _, h := range []float64{1e-6, 1e-9} {
		c, _ := rcCircuit()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		tr, err := c.TransientContext(ctx, 1e3, h)
		cancel()
		if err != nil {
			t.Fatalf("h=%g: cancelled transient should return the partial trace, got error: %v", h, err)
		}
		if !tr.Truncated {
			t.Errorf("h=%g: deadlined transient did not set Truncated", h)
		}
		if len(tr.Time) < 1 {
			t.Errorf("h=%g: truncated trace holds no samples", h)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("h=%g: deadline ignored: transient ran %v", h, elapsed)
		}
	}
}

func TestDCCancellationReturnsError(t *testing.T) {
	c, _ := rcCircuit()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.DCContext(ctx); err == nil {
		t.Fatal("cancelled DC should fail (no useful partial operating point)")
	}
}

// TestNewtonBudgetExhausted pins the iteration budget: a switch that closes
// above 0.5 V pulls its node, fed from 1 V through 1 kohm, down to 1 mV and
// opens again, so the circuit has no operating point. Every tier must end
// its DC in the convergence error after exactly newtonBudget iterations per
// Newton run, not hang or return a wrong answer. The fast tier spends its
// own budget, then falls back to the exact tier for the point.
func TestNewtonBudgetExhausted(t *testing.T) {
	for _, tc := range []struct {
		mode           SolverMode
		runs, fallback int64
	}{
		{SolverReference, 1, 0},
		{SolverAuto, 1, 0},
		{SolverFast, 2, 1},
	} {
		c := New()
		in := c.NodeByName("in")
		n := c.NodeByName("n")
		c.AddV("v", in, Ground, func(float64) float64 { return 1 })
		c.AddR("r", in, n, 1e3)
		c.AddSwitch("s", n, Ground, n, Ground, 1, 1e9, 0.5)
		c.Solver = tc.mode
		_, err := c.DC()
		const want = "mna: Newton iteration did not converge at t=0"
		if err == nil || err.Error() != want {
			t.Errorf("%v: DC error %v, want %q", tc.mode, err, want)
		}
		st := c.SolverStats()
		if st.NewtonIterations != tc.runs*newtonBudget || st.Fallbacks != tc.fallback {
			t.Errorf("%v: %d iterations, %d fallbacks; want %d, %d",
				tc.mode, st.NewtonIterations, st.Fallbacks, tc.runs*newtonBudget, tc.fallback)
		}
	}
}
