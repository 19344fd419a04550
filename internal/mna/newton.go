package mna

import (
	"context"
	"fmt"
	"math"
)

const (
	newtonBudget    = 300 // iterations per solve point
	newtonMaxChange = 0.5 // volts per Newton step
	newtonTol       = 1e-8
)

// newtonTier is one linear-solver tier's half of a Newton iteration.
type newtonTier interface {
	// step linearizes the circuit around x (prev is the previous time
	// point; h <= 0 means DC), solves the system, and returns the update
	// toward its solution, indexed like x (index 0 unused), and whether the
	// solve reused an earlier iteration's factorization. dx is valid until
	// the next step.
	step(c *Circuit, x, prev Solution, t, h float64) (dx Solution, reused bool, err error)
	// stalled reports that a reused factorization contracted the update by
	// less than fastStallRatio: the next step must factor afresh.
	stalled()
}

// newton is the one Newton iteration of every tier: it owns the budget,
// the cancellation check, the op-amp limiting reset, the damped update,
// the convergence test and the iteration counter, and the tier supplies
// only the step. It iterates from the start x, in place, and returns the
// converged solution aliasing x. The per-iteration voltage change is
// limited so that the saturating op-amp characteristic cannot make the
// iteration oscillate across its knee. An update below tol
// converges; one computed through a reused factorization must also show
// contraction (see fastChordAccept). Cancellation is observed between
// iterations, so no solve can hold its goroutine past the caller's deadline
// by more than one iteration.
func (c *Circuit) newton(ctx context.Context, tier newtonTier, x, prev Solution, t, h, tol float64) (Solution, error) {
	for _, d := range c.devices {
		d.hasLast = false
	}
	prevWorst := math.Inf(1)
	for iter := 0; iter < newtonBudget; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mna: solve at t=%g cancelled: %w", t, err)
		}
		dx, reused, err := tier.step(c, x, prev, t, h)
		if err != nil {
			return nil, err
		}
		c.stats.NewtonIterations++
		worst := 0.0
		for i := 1; i < len(dx); i++ {
			if d := math.Abs(dx[i]); d > worst {
				worst = d
			}
		}
		alpha := 1.0
		if worst > newtonMaxChange {
			alpha = newtonMaxChange / worst
		}
		for i := 1; i < len(dx); i++ {
			x[i] += alpha * dx[i]
		}
		if worst < tol && (!reused || worst <= fastChordAccept*prevWorst) {
			return x, nil
		}
		if reused && worst > fastStallRatio*prevWorst {
			tier.stalled()
		}
		prevWorst = worst
	}
	return x, fmt.Errorf("mna: Newton iteration did not converge at t=%g", t)
}

// pointSolver selects the circuit's tier for one analysis. The returned
// function solves one DC (h <= 0) or transient point: Newton from x0,
// iterating in dst (len dim+1), which it returns. dim is the reduced
// system dimension.
func (c *Circuit) pointSolver(ctx context.Context) (solve func(dst, x0, prev Solution, t, h float64) (Solution, error), dim int) {
	var tier newtonTier
	if c.Solver == SolverReference {
		m := newMatrix(c.nodes + c.assignBranches())
		c.stats.PeakDim = max(c.stats.PeakDim, m.n)
		tier, dim = m, m.n
	} else {
		s := c.ensureSolver()
		if c.Solver == SolverFast {
			return func(dst, x0, prev Solution, t, h float64) (Solution, error) {
				return c.solveFast(ctx, s, dst, x0, prev, t, h)
			}, s.dim
		}
		tier, dim = (*exactTier)(s), s.dim
	}
	return func(dst, x0, prev Solution, t, h float64) (Solution, error) {
		copy(dst, x0)
		return c.newton(ctx, tier, dst, prev, t, h, newtonTol)
	}, dim
}

// exactTier is the exact tier's view of the plan workspace.
type exactTier solver

// step stamps through the plan's precomputed slots and factors in place
// inside the solver workspace, allocating nothing (pinned by
// TestNewtonZeroAllocs) unless the elimination leaves the sparse pattern.
// Such a step is solved by denseSolve and relayouts the plan once.
func (e *exactTier) step(c *Circuit, x, prev Solution, t, h float64) (Solution, bool, error) {
	s := (*solver)(e)
	// Snapshot the op-amp Newton-limiting state: the restamp of a pattern
	// miss must replay the identical linearization, and opampLinearize
	// advances lastVc on every call.
	for i, d := range s.ops {
		s.opVc[i], s.opHas[i] = d.lastVc, d.hasLast
	}
	s.clear()
	c.stampInto(s, x, prev, t, h)
	c.stats.Factorizations++
	next := s.next
	err := s.factorSolve(next)
	if err == errPatternMiss {
		// The elimination needs fill the pattern lacks: restamp, solve this
		// iteration densely, and relayout once for the whole fill of the
		// pivot sequence it took.
		for i, d := range s.ops {
			d.lastVc, d.hasLast = s.opVc[i], s.opHas[i]
		}
		s.clear()
		c.stampInto(s, x, prev, t, h)
		err = s.denseSolve(next)
		c.layout(s)
	}
	if err != nil {
		return nil, false, err
	}
	for i := 1; i < len(next); i++ {
		next[i] -= x[i]
	}
	return next, false, nil
}

// stalled is never called: the exact tier factors on every step.
func (e *exactTier) stalled() {}
