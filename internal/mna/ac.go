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
// Every tier fans the sweep out across GOMAXPROCS goroutines; every worker
// count produces the identical result (see acSweep).
func (c *Circuit) ACContext(ctx context.Context, acSource string, freqs []float64) (*ACResult, error) {
	return c.acSweep(ctx, acSource, freqs, runtime.GOMAXPROCS(0))
}

// acSweep is the one AC sweep loop of every tier. The tiers differ only in
// the operating point their DC finds: the small-signal system is assembled
// once at that point, before the fan-out, so every behavioral Jacobian is
// evaluated on this goroutine (Elaborate's closures share scratch).
// Frequency points are then independent dense complex solves, dispatched in
// ascending order by an atomic counter to at most workers goroutines, each
// with its own scratch. Every worker count produces the identical result:
// each point's arithmetic is self-contained, solutions and errors land in
// per-point slots, a worker stops at its own first failure, and after the
// wait the first unsolved point is the truncation point if the context
// ended, and otherwise the lowest failing point, whose error is returned.
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
	g, caps := c.acAssemble(op, acSource)

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
			p := newACPoint(g.n)
			for {
				i := int(next.Add(1)) - 1
				if i >= nf || ctx.Err() != nil {
					return
				}
				if err := p.solve(g, caps, freqs[i]); err != nil {
					errs[i] = err
					return
				}
				for n := 0; n < c.nodes; n++ {
					back[n*nf+i] = p.x[n+1]
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

// acAssemble linearizes the circuit at the operating point op into g, the
// real part of the small-signal system with acSource as the unit stimulus,
// and returns the capacitors, whose admittance jωC is the system's only
// frequency-dependent part. Each device's small-signal model is the one its
// Newton linearization uses, taken at the operating point without Newton
// limiting.
func (c *Circuit) acAssemble(op Solution, acSource string) (g *matrix, caps []*device) {
	g = newMatrix(c.nodes + c.assignBranches())
	for _, d := range c.devices {
		switch d.kind {
		case dResistor:
			g.addG(d.a, d.b, 1/d.value)
		case dCapacitor:
			caps = append(caps, d)
		case dVSource:
			stim := 0.0
			if d.name == acSource {
				stim = 1
			}
			g.stampVSource(d.branch, d.a, d.b, stim)
		case dSwitch:
			g.addG(d.a, d.b, 1/d.switchR(op.V(d.cp)-op.V(d.cm)))
		case dOpAmp:
			dg := d.opampSlope(op.V(d.cp) - op.V(d.cm))
			g.a[d.branch][d.a] += 1
			g.a[d.branch][d.cp] -= dg
			g.a[d.branch][d.cm] += dg
			g.a[d.a][d.branch] += 1
		case dFunc:
			dps := make([]float64, len(d.ctrl))
			d.funcLinearize(op, make([]float64, len(d.ctrl)), dps)
			g.a[d.branch][d.a] += 1
			for i, n := range d.ctrl {
				g.a[d.branch][n] -= dps[i]
			}
			g.a[d.a][d.branch] += 1
		}
	}
	return g, caps
}

// acPoint is one sweep worker's dense scratch: the complex system with its
// ground row and column (the right-hand side last), the reduced row headers
// eliminateAC permutes, and the 1-based solution.
type acPoint struct {
	a, rows [][]complex128
	x       []complex128
}

func newACPoint(n int) *acPoint {
	p := &acPoint{a: make([][]complex128, n+1), rows: make([][]complex128, n), x: make([]complex128, n+1)}
	back := make([]complex128, (n+1)*(n+2))
	for i := range p.a {
		p.a[i] = back[i*(n+2) : (i+1)*(n+2)]
	}
	return p
}

// solve solves the system at frequency f into p.x: it loads g's real
// entries, adds each capacitor's jωC in device order and runs eliminateAC,
// allocating nothing. Complex addition is componentwise and no accumulator
// of the assembly can hold a -0 component, so adding the capacitors last
// gives the bits of an assembly that interleaves them in device order.
func (p *acPoint) solve(g *matrix, caps []*device, f float64) error {
	for i, row := range p.a {
		for j, v := range g.a[i] {
			row[j] = complex(v, 0)
		}
		row[g.n+1] = complex(g.rhs[i], 0)
	}
	omega := 2 * math.Pi * f
	for _, d := range caps {
		y := complex(0, omega*d.value)
		p.a[d.a][d.a] += y
		p.a[d.b][d.b] += y
		p.a[d.a][d.b] -= y
		p.a[d.b][d.a] -= y
	}
	for i := range p.rows {
		p.rows[i] = p.a[i+1][1:]
	}
	return eliminateAC(p.rows, p.x)
}

// eliminateAC solves the reduced complex system m (n rows of n coefficients
// followed by the right-hand side) into the 1-based solution x by Gaussian
// elimination with partial pivoting, overwriting m and permuting its rows.
// It is the one complex eliminator: every tier's AC points run it. The
// pivot is the largest cmplx.Abs in row order, the earlier row on ties; a
// pivot modulus below the absolute 1e-15 threshold is singular.
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
