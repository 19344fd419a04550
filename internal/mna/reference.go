package mna

import (
	"fmt"
	"math"
)

// This file preserves the original dense allocate-per-solve eliminator as
// SolverReference: the oracle against which the plan-based exact tier is
// proven bit-identical (see the corpus equivalence tests). Its Newton step
// runs in the Newton loop every tier shares (newton.go). It is never used
// outside tests unless explicitly selected via Circuit.Solver, with two
// exceptions: the exact tier solves an iteration whose elimination leaves
// its sparse pattern with this file's eliminate, and every tier's AC sweep
// assembles its small-signal system in a matrix (acAssemble).

// matrix is a dense MNA system Ax = b with ground row/column folded away.
type matrix struct {
	n   int
	a   [][]float64
	rhs []float64
}

func newMatrix(n int) *matrix {
	m := &matrix{n: n, rhs: make([]float64, n+1)}
	m.a = make([][]float64, n+1)
	for i := range m.a {
		m.a[i] = make([]float64, n+1)
	}
	return m
}

func (m *matrix) clear() {
	for i := range m.a {
		for j := range m.a[i] {
			m.a[i][j] = 0
		}
		m.rhs[i] = 0
	}
}

func (m *matrix) addG(a, b Node, g float64) {
	m.a[a][a] += g
	m.a[b][b] += g
	m.a[a][b] -= g
	m.a[b][a] -= g
}

// addI injects current ieq into node a (out of b).
func (m *matrix) addI(a, b Node, ieq float64) {
	m.rhs[a] += ieq
	m.rhs[b] -= ieq
}

func (m *matrix) stampVSource(branch int, a, b Node, v float64) {
	m.a[branch][a] += 1
	m.a[branch][b] -= 1
	m.a[a][branch] += 1
	m.a[b][branch] -= 1
	m.rhs[branch] += v
}

// stampRef builds the linearized MNA system around the iterate x at time t.
// h <= 0 means DC (capacitors open). prev is the previous-step solution for
// companion models.
func (c *Circuit) stampRef(m *matrix, x Solution, prev Solution, t, h float64) {
	m.clear()
	vx := func(n Node) float64 {
		if n == Ground {
			return 0
		}
		return x[n]
	}
	for _, d := range c.devices {
		switch d.kind {
		case dResistor:
			g := 1 / d.value
			m.addG(d.a, d.b, g)
		case dCapacitor:
			if h <= 0 {
				// DC: tiny conductance to avoid floating nodes.
				m.addG(d.a, d.b, 1e-12)
				continue
			}
			g := d.value / h
			m.addG(d.a, d.b, g)
			m.addI(d.a, d.b, g*(prev.V(d.a)-prev.V(d.b)))
		case dVSource:
			m.stampVSource(d.branch, d.a, d.b, d.wave(t))
		case dSwitch:
			m.addG(d.a, d.b, 1/d.switchR(vx(d.cp)-vx(d.cm)))
		case dOpAmp:
			dg, rhs := d.opampLinearize(vx(d.cp) - vx(d.cm))
			m.a[d.branch][d.a] += 1
			m.a[d.branch][d.cp] -= dg
			m.a[d.branch][d.cm] += dg
			m.rhs[d.branch] += rhs
			m.a[d.a][d.branch] += 1
		case dFunc:
			vals := make([]float64, len(d.ctrl))
			dps := make([]float64, len(d.ctrl))
			m.a[d.branch][d.a] += 1
			rhs := d.funcLinearize(x, vals, dps)
			for i, n := range d.ctrl {
				if n == Ground {
					continue
				}
				m.a[d.branch][n] -= dps[i]
			}
			m.rhs[d.branch] += rhs
			m.a[d.a][d.branch] += 1
		}
	}
}

// solve performs Gaussian elimination with partial pivoting, ignoring the
// ground row/column (index 0).
func (m *matrix) solve() (Solution, error) {
	n := m.n
	// Build the reduced system (indices 1..n).
	a := make([][]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n+1)
		copy(a[i], m.a[i+1][1:])
		a[i][n] = m.rhs[i+1]
	}
	x := make(Solution, n+1)
	if _, err := eliminate(a, x, nil); err != nil {
		return nil, err
	}
	return x, nil
}

// eliminate solves the reduced system a (n rows of n coefficients followed
// by the right-hand side) in place by Gaussian elimination with partial
// pivoting, and writes the solution into x[1:]. It is the reference
// arithmetic: SolverReference runs it on every Newton iteration, and the
// exact tier runs it on an iteration whose elimination leaves the sparse
// pattern (solver.denseSolve). When rows is non-nil, rows[col] receives the
// original index of the row that pivoted on column col. The count of
// pivoted columns is returned; it is n unless the matrix is singular.
func eliminate(a [][]float64, x Solution, rows []int) (int, error) {
	n := len(a)
	for i := range rows {
		rows[i] = i
	}
	// Per-column magnitude of the original system: the singularity test is
	// relative to it, so a well-conditioned circuit whose conductances are
	// uniformly tiny (nano-siemens resistors stamp ~1e-16 entries) is not
	// misclassified as singular by an absolute threshold, while a column
	// whose pivot collapses relative to its own scale still is.
	scale := make([]float64, n)
	for r := 0; r < n; r++ {
		for col := 0; col < n; col++ {
			if v := math.Abs(a[r][col]); v > scale[col] {
				scale[col] = v
			}
		}
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if piv := math.Abs(a[p][col]); scale[col] == 0 || piv < 1e-12*scale[col] {
			return col, fmt.Errorf("mna: singular matrix at column %d (floating node?)", col+1)
		}
		a[col], a[p] = a[p], a[col]
		if rows != nil {
			rows[col], rows[p] = rows[p], rows[col]
		}
		piv := a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / piv
			if f == 0 {
				continue
			}
			for k := col; k <= n; k++ {
				a[r][k] -= f * a[col][k]
			}
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := a[r][n]
		for k := r + 1; k < n; k++ {
			sum -= a[r][k] * x[k+1]
		}
		x[r+1] = sum / a[r][r]
	}
	return n, nil
}

// step is the reference tier's Newton step: a fresh dense matrix stamped
// around x and solved by matrix.solve, allocating per solve as the seed did.
func (m *matrix) step(c *Circuit, x, prev Solution, t, h float64) (Solution, bool, error) {
	c.stampRef(m, x, prev, t, h)
	c.stats.Factorizations++
	next, err := m.solve()
	if err != nil {
		return nil, false, err
	}
	for i := 1; i < len(next); i++ {
		next[i] -= x[i]
	}
	return next, false, nil
}

// stalled is never called: the reference factors on every step.
func (m *matrix) stalled() {}
