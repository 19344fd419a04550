package mna

import (
	"context"
	"errors"
	"fmt"
)

// This file is the numeric half of the SolverFast tier (the symbolic half
// lives in ordering.go). Where the exact tier must replay SolverReference's
// floating-point operation sequence byte for byte, this tier is free to
// reorder arithmetic, skip numerically-dead work and reuse stale
// factorizations — its contract with the reference is the ErrorBudget on
// traces (compare.go), not bit-identity.
//
// The Newton iteration runs in residual form (a chord method): each
// iteration assembles the fresh linearized system A(x), b(x) through the
// stamp plan, computes the residual r = b - A·x, and solves LU·Δ = r with a
// factorization that may be several iterations or timesteps old. The fixed
// point of that iteration is A(x*)·x* = b(x*) regardless of how stale the
// LU is — staleness only slows convergence, it cannot change the answer —
// which is what makes factorization reuse safe. A per-entry Jacobian-delta
// test decides when the LU is worth rebuilding, and a stall detector
// (update norm no longer contracting) catches drift the per-entry test
// rates as small but that matters in aggregate.

const (
	// fastJacTol is the factorization-reuse threshold: the LU is rebuilt
	// when any assembled entry moved more than this fraction of its
	// elimination column's factorization-time magnitude. All entries are
	// compared — not just nonlinear ones — so a capacitor's companion
	// conductance changing between DC (1e-12) and transient (C/h) forces
	// the refactorization it needs.
	fastJacTol = 0.05
	// fastStallRatio: a reused factorization whose update norm shrinks by
	// less than this factor per iteration is stale in aggregate; force a
	// refactorization on the next iteration.
	fastStallRatio = 0.7
	// fastChordAccept: a small update computed through a reused (stale) LU
	// only proves convergence if the iteration is demonstrably contracting —
	// with observed rate ρ the true error is bounded by |Δ|·ρ/(1-ρ), so
	// requiring ρ ≤ 0.25 certifies the solution to tol/3. Without this check
	// an ill-conditioned point (an op-amp at its saturation knee) can pass
	// the update test while the residual — and the answer — is still off.
	// A steady step therefore takes two cheap chord iterations instead of
	// one, never an extra factor.
	fastChordAccept = 0.25
)

// errFastRepivot signals that a scheduled pivot collapsed below the monitor
// threshold: the ordering is numerically stale and must be recomputed from
// current values.
var errFastRepivot = errors.New("mna: fast pivot below monitor threshold, reorder")

// fastFactor scatters the assembled plan values into the permuted storage
// and runs the static elimination schedule in place. With strict set, a
// pivot below the monitor threshold aborts with errFastRepivot (the caller
// reorders and retries); after a reorder the factorization proceeds with
// whatever pivots the fresh ordering produced, down to the singularity
// floor. L multipliers are stored in place of the eliminated entries so a
// later iteration can reuse the factorization without refactoring.
func (s *solver) fastFactor(strict bool) error {
	fs := s.fast
	lu := fs.luvals
	for i := range lu {
		lu[i] = 0
	}
	for i := range fs.colScale {
		fs.colScale[i] = 0
	}
	for i, q := range fs.src {
		v := s.vals[q]
		lu[fs.dst[i]] = v
		fs.snap[i] = v
		if v < 0 {
			v = -v
		}
		if cc := fs.scatCol[i]; v > fs.colScale[cc] {
			fs.colScale[cc] = v
		}
	}
	sched := fs.sched
	cur := 0
	for k := 0; k < fs.n; k++ {
		nT, tail := int(sched[cur]), int(sched[cur+1])
		cur += 2
		piv := lu[fs.diag[k]]
		apiv := piv
		if apiv < 0 {
			apiv = -apiv
		}
		scale := fs.colScale[k]
		if piv == 0 || apiv < 1e-12*scale {
			// Zero-scale columns (pivots living entirely on fill) are
			// only singular when the pivot itself is zero.
			return fmt.Errorf("mna: singular matrix at column %d (floating node?)", fs.cperm[k]+1)
		}
		if strict && apiv < fastMonitorRel*fs.pivRef[k] {
			return errFastRepivot
		}
		inv := 1 / piv
		fs.inv[k] = inv
		pbase := int(fs.diag[k]) + 1
		for t := 0; t < nT; t++ {
			lslot := sched[cur]
			dst := sched[cur+2 : cur+2+tail]
			cur += 2 + tail
			f := lu[lslot] * inv
			lu[lslot] = f
			if f == 0 {
				continue // numerically-dead target: skip the whole update
			}
			for j, q := range dst {
				lu[q] -= f * lu[pbase+j]
			}
		}
	}
	fs.haveLU = true
	return nil
}

// fastFactorRetry factors with the current ordering, reordering once from
// the assembled values when the pivot monitor trips.
func (c *Circuit) fastFactorRetry(s *solver) error {
	c.stats.Factorizations++
	err := s.fastFactor(true)
	if err == errFastRepivot {
		fs, berr := c.buildFastState(s)
		if berr != nil {
			return berr
		}
		s.fast = fs
		c.stats.Factorizations++
		err = s.fastFactor(false)
	}
	return err
}

// stale reports whether the assembled values have drifted past fastJacTol
// of the factorization-time snapshot anywhere.
func (fs *fastState) stale(s *solver) bool {
	for i, q := range fs.src {
		dv := s.vals[q] - fs.snap[i]
		if dv < 0 {
			dv = -dv
		}
		if dv > fastJacTol*fs.colScale[fs.scatCol[i]] {
			return true
		}
	}
	return false
}

// fastResidual computes w = b - A·x permuted into elimination row order,
// reading the assembled system directly (fill slots hold exact zeros and
// contribute nothing).
func (s *solver) fastResidual(x Solution) {
	fs := s.fast
	for r := 0; r < s.dim; r++ {
		acc := s.rhsv[r]
		for q := s.rowPtr[r]; q < s.rowPtr[r+1]; q++ {
			acc -= s.vals[q] * x[s.colIdx[q]+1]
		}
		fs.w[fs.rpos[r]] = acc
	}
}

// fastSolveDelta solves LU·y = w over the stored factors: the forward pass
// replays the schedule's L multipliers against the permuted residual, the
// backward pass substitutes over each row's post-diagonal tail.
func (s *solver) fastSolveDelta() {
	fs := s.fast
	sched, w, lu := fs.sched, fs.w, fs.luvals
	cur := 0
	n := fs.n
	for k := 0; k < n; k++ {
		nT, tail := int(sched[cur]), int(sched[cur+1])
		cur += 2
		wk := w[k]
		if wk == 0 {
			cur += nT * (2 + tail)
			continue
		}
		for t := 0; t < nT; t++ {
			lslot, row := sched[cur], sched[cur+1]
			cur += 2 + tail
			w[row] -= lu[lslot] * wk
		}
	}
	y := fs.y
	for k := n - 1; k >= 0; k-- {
		sum := w[k]
		for q := int(fs.diag[k]) + 1; q < int(fs.rowPtr[k+1]); q++ {
			sum -= lu[q] * y[fs.colIdx[q]]
		}
		y[k] = sum * fs.inv[k]
	}
}

// fastTier is the SolverFast view of the plan workspace.
type fastTier solver

// solveFast runs one solve point on the fast tier: assemble, factor only
// when the snapshot says the Jacobian moved (or convergence stalled), solve
// the residual system, and let the shared Newton loop apply the damped
// update. Steady-state iterations with a warm factorization allocate
// nothing; the factorization persists across solve points, so a transient's
// cost per step collapses to stamping plus two triangular solves once the
// waveforms move slowly.
func (c *Circuit) solveFast(ctx context.Context, s *solver, dst, x0, prev Solution, t, h float64) (Solution, error) {
	if !s.fastOff {
		copy(dst, x0)
		if fs := s.fast; fs != nil && fs.havePrev && h > 0 {
			// Predictive start: linearly extrapolate the two previous
			// accepted transient solutions. On smooth stretches this lands
			// an O(h²) guess where the plain previous-point start is O(h),
			// trading one chord iteration per step for nothing; across an
			// event the guess is bad but the damped iteration (and, at
			// worst, the exact-tier fallback) still converges to the same
			// fixed point, so the budget contract is unaffected.
			for i := range dst {
				dst[i] = 2*x0[i] - fs.xprev[i]
			}
		}
		x, err := c.newton(ctx, (*fastTier)(s), dst, prev, t, h, c.Budget.newtonTol())
		if err == nil {
			if fs := s.fast; h > 0 {
				copy(fs.xprev, x0)
				fs.havePrev = true
			} else {
				fs.havePrev = false
			}
			return x, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		// The fast iteration exhausted its budget, or its machinery failed
		// and the step turned the tier off: re-solve this point on the
		// exact tier from the caller's start. High-gain circuits can be
		// Newton-multistable — a budget-sized difference in the starting
		// point sends the damped iteration on a much longer path — and the
		// exact iteration, solving the full linearized system every
		// iteration, is the robust strategy of record. The fallback keeps
		// the fast tier total (it fails only where the exact tier fails) at
		// the cost of one slow point; the result is still deterministic.
		c.stats.Fallbacks++
		if fs := s.fast; fs != nil {
			// A point hard enough to exhaust the chord budget is usually
			// an event; don't extrapolate the next step through it.
			fs.havePrev = false
		}
	}
	copy(dst, x0)
	return c.newton(ctx, (*exactTier)(s), dst, prev, t, h, newtonTol)
}

// step assembles, reuses or refreshes the factorization, and solves the
// residual system for the update. A failure of the ordering or the
// scheduled factorization turns the tier off for the rest of the run: a
// matrix singular at one garbage mid-Newton iterate says nothing about the
// circuit — the exact tier's runtime pivoting is the diagnosis of record,
// and a genuinely singular circuit fails there with the same error text the
// fast factorization would have produced.
func (f *fastTier) step(c *Circuit, x, prev Solution, t, h float64) (Solution, bool, error) {
	s := (*solver)(f)
	s.clear()
	c.stampInto(s, x, prev, t, h)
	fs := s.fast
	if fs == nil {
		var err error
		if fs, err = c.buildFastState(s); err != nil {
			s.fastOff = true
			return nil, false, err
		}
		s.fast = fs
	}
	reused := false
	if fs.haveLU && !fs.forceRefactor && !fs.stale(s) {
		c.stats.FactorReuses++
		reused = true
	} else {
		if err := c.fastFactorRetry(s); err != nil {
			s.fastOff = true
			return nil, false, err
		}
		fs = s.fast // a monitor-forced reorder replaces the state
		fs.forceRefactor = false
	}
	s.fastResidual(x)
	s.fastSolveDelta()
	dx := s.next
	for k, col := range fs.cperm {
		dx[col+1] = fs.y[k]
	}
	return dx, reused, nil
}

// stalled forces the next step, at this point or a later one, to refactor.
func (f *fastTier) stalled() { f.fast.forceRefactor = true }
