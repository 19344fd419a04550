package mna

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// ACResult holds a small-signal frequency sweep: complex node voltages per
// analysis frequency for a unit AC stimulus.
type ACResult struct {
	Freqs []float64
	V     map[Node][]complex128
	// Truncated is set when a cancelled or deadlined context stopped the
	// sweep early: Freqs and V hold the points solved so far.
	Truncated bool
	c         *Circuit
}

// Mag returns the magnitude response of a named node.
func (r *ACResult) Mag(name string) []float64 {
	n, ok := r.c.names[name]
	if !ok {
		return nil
	}
	return r.MagOf(n)
}

// MagOf returns the magnitude response of a node.
func (r *ACResult) MagOf(n Node) []float64 {
	out := make([]float64, len(r.Freqs))
	for i, v := range r.V[n] {
		out[i] = cmplx.Abs(v)
	}
	return out
}

// MagDB returns the magnitude response in decibels.
func (r *ACResult) MagDB(name string) []float64 {
	mags := r.Mag(name)
	out := make([]float64, len(mags))
	for i, m := range mags {
		if m <= 0 {
			out[i] = math.Inf(-1)
			continue
		}
		out[i] = 20 * math.Log10(m)
	}
	return out
}

// PhaseDeg returns the phase response in degrees.
func (r *ACResult) PhaseDeg(name string) []float64 {
	n, ok := r.c.names[name]
	if !ok {
		return nil
	}
	out := make([]float64, len(r.Freqs))
	for i, v := range r.V[n] {
		out[i] = cmplx.Phase(v) * 180 / math.Pi
	}
	return out
}

// LogSweep returns n logarithmically spaced frequencies in [f1, f2].
func LogSweep(f1, f2 float64, n int) []float64 {
	if n < 2 {
		return []float64{f1}
	}
	out := make([]float64, n)
	ratio := math.Log(f2 / f1)
	for i := range out {
		out[i] = f1 * math.Exp(ratio*float64(i)/float64(n-1))
	}
	return out
}

// AC performs a small-signal frequency sweep: the circuit is linearized at
// its DC operating point (saturating op amps, switches and behavioral
// sources contribute their local conductances and gains), the named source
// becomes a unit AC stimulus, and the complex MNA system is solved per
// frequency.
func (c *Circuit) AC(acSource string, freqs []float64) (*ACResult, error) {
	return c.ACContext(context.Background(), acSource, freqs)
}

// ACContext is AC under a context, checked between frequency points: a
// cancelled or deadlined sweep returns the prefix solved so far with
// Truncated set, mirroring the transient simulator's anytime contract.
// A frequency that is NaN, infinite or negative is an error.
//
// The plan tiers fan the sweep out across GOMAXPROCS goroutines; every
// worker count produces the identical result (see acSweep).
func (c *Circuit) ACContext(ctx context.Context, acSource string, freqs []float64) (*ACResult, error) {
	return c.acSweep(ctx, acSource, freqs, runtime.GOMAXPROCS(0))
}

// acSweep is the one AC sweep loop of every tier. Frequency points are
// independent complex solves over the same structure, dispatched in
// ascending order by an atomic counter to at most workers goroutines, each
// with its own point solver. Every worker count produces the identical
// result: each point's arithmetic is self-contained, solutions and errors
// land in per-point slots, a worker stops at its own first failure, and
// after the wait the first unsolved point is the truncation point if the
// context ended, and otherwise the lowest failing point, whose error is
// returned. The reference tier runs on one worker: its behavioral (dFunc)
// closures share scratch.
func (c *Circuit) acSweep(ctx context.Context, acSource string, freqs []float64, workers int) (*ACResult, error) {
	for _, f := range freqs {
		if !(f >= 0 && f <= math.MaxFloat64) {
			return nil, fmt.Errorf("mna: AC frequency %g Hz is not finite and non-negative", f)
		}
	}
	op, err := c.DCContext(ctx)
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled before any point could be solved: the empty
			// prefix is the anytime result.
			return &ACResult{Freqs: freqs[:0], V: map[Node][]complex128{}, Truncated: true, c: c}, nil
		}
		return nil, fmt.Errorf("mna: AC operating point: %w", err)
	}
	if !slices.ContainsFunc(c.devices, func(d *device) bool { return d.kind == dVSource && d.name == acSource }) {
		return nil, fmt.Errorf("mna: no voltage source %q for the AC stimulus", acSource)
	}

	// newPoint returns one worker's point solver. The returned solution is
	// 1-based and valid until the solver's next call.
	newPoint := func() func(f float64) ([]complex128, error) {
		return func(f float64) ([]complex128, error) { return c.acSolve(op, acSource, f) }
	}
	if c.Solver == SolverReference {
		workers = 1
	} else {
		s, err := c.ensureSolver()
		if err != nil {
			return nil, err
		}
		tmpl := c.buildACTemplate(s, op, acSource)
		newPoint = func() func(f float64) ([]complex128, error) {
			ws := newACWorkspace(s)
			return func(f float64) ([]complex128, error) {
				err := ws.solvePoint(s, tmpl, f)
				return ws.x, err
			}
		}
	}

	// Node voltages by node, then by point: back holds one column per node.
	nf := len(freqs)
	back := make([]complex128, c.nodes*nf)
	errs := make([]error, nf)
	done := make([]bool, nf)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < min(workers, nf); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			solve := newPoint()
			for {
				i := int(next.Add(1)) - 1
				if i >= nf || ctx.Err() != nil {
					return
				}
				x, err := solve(freqs[i])
				if err != nil {
					errs[i] = err
					return
				}
				for n := 0; n < c.nodes; n++ {
					back[n*nf+i] = x[n+1]
				}
				done[i] = true
			}
		}()
	}
	wg.Wait()

	solved := 0
	for solved < nf && done[solved] {
		solved++
	}
	c.stats.Factorizations += int64(solved)
	res := &ACResult{Freqs: freqs, V: make(map[Node][]complex128, c.nodes), c: c}
	if solved < nf {
		if ctx.Err() == nil {
			return nil, fmt.Errorf("mna: AC at %g Hz: %w", freqs[solved], errs[solved])
		}
		res.Freqs = freqs[:solved]
		res.Truncated = true
	}
	for n := 0; n < c.nodes; n++ {
		res.V[Node(n+1)] = back[n*nf : n*nf+solved : n*nf+solved]
	}
	return res, nil
}

// acSolve assembles and solves the complex linearized system at frequency f.
// Each device's small-signal model is the one its Newton linearization
// uses, taken at the operating point without Newton limiting.
func (c *Circuit) acSolve(op Solution, acSource string, f float64) ([]complex128, error) {
	dim := c.nodes + c.assignBranches()
	a := make([][]complex128, dim+1)
	for i := range a {
		a[i] = make([]complex128, dim+2) // last column is the RHS
	}
	omega := 2 * math.Pi * f

	addG := func(p, q Node, g complex128) {
		a[p][p] += g
		a[q][q] += g
		a[p][q] -= g
		a[q][p] -= g
	}
	for _, d := range c.devices {
		switch d.kind {
		case dResistor:
			addG(d.a, d.b, complex(1/d.value, 0))
		case dCapacitor:
			addG(d.a, d.b, complex(0, omega*d.value))
		case dVSource:
			stim := 0.0
			if d.name == acSource {
				stim = 1
			}
			a[d.branch][d.a] += 1
			a[d.branch][d.b] -= 1
			a[d.a][d.branch] += 1
			a[d.b][d.branch] -= 1
			a[d.branch][dim+1] += complex(stim, 0)
		case dSwitch:
			addG(d.a, d.b, complex(1/d.switchR(op.V(d.cp)-op.V(d.cm)), 0))
		case dOpAmp:
			dg := complex(d.opampSlope(op.V(d.cp)-op.V(d.cm)), 0)
			a[d.branch][d.a] += 1
			a[d.branch][d.cp] -= dg
			a[d.branch][d.cm] += dg
			a[d.a][d.branch] += 1
		case dFunc:
			dps := make([]float64, len(d.ctrl))
			d.funcLinearize(op, make([]float64, len(d.ctrl)), dps)
			a[d.branch][d.a] += 1
			for i, n := range d.ctrl {
				a[d.branch][n] -= complex(dps[i], 0)
			}
			a[d.a][d.branch] += 1
		}
	}

	// Reduced complex system: drop the ground row and column.
	m := make([][]complex128, dim)
	for i := range m {
		m[i] = a[i+1][1:]
	}
	x := make([]complex128, dim+1)
	if err := eliminateAC(m, x); err != nil {
		return nil, err
	}
	return x, nil
}

// eliminateAC solves the reduced complex system m (n rows of n coefficients
// followed by the right-hand side) into the 1-based solution x by Gaussian
// elimination with partial pivoting, overwriting m and permuting its rows.
// It is the one complex eliminator: the reference tier's acSolve and the
// plan tiers' sparse-miss path both run it. The pivot is the largest
// cmplx.Abs in row order, the earlier row on ties; a pivot modulus below
// the absolute 1e-15 threshold is singular.
func eliminateAC(m [][]complex128, x []complex128) error {
	n := len(m)
	for col := 0; col < n; col++ {
		p := col
		pv := cmplx.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if av := cmplx.Abs(m[r][col]); av > pv {
				p, pv = r, av
			}
		}
		if pv < 1e-15 {
			return fmt.Errorf("singular AC matrix at column %d", col+1)
		}
		m[col], m[p] = m[p], m[col]
		prow := m[col][col : n+1]
		piv := prow[0]
		// 0/piv is an exact zero, and so a skipped row, unless piv holds
		// a NaN: testing the numerator first saves the complex division.
		zeroSkips := !cmplx.IsNaN(piv)
		for r := col + 1; r < n; r++ {
			num := m[r][col]
			if num == 0 && zeroSkips {
				continue
			}
			fac := num / piv
			if fac == 0 {
				continue
			}
			row := m[r][col : n+1]
			row = row[:len(prow)]
			for k, pk := range prow {
				row[k] -= fac * pk
			}
		}
	}
	for r := n - 1; r >= 0; r-- {
		row := m[r]
		sum := row[n]
		for k := r + 1; k < n; k++ {
			sum -= row[k] * x[k+1]
		}
		x[r+1] = sum / row[r]
	}
	x[0] = 0
	return nil
}
