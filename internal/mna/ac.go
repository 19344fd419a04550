package mna

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
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
// its DC operating point (saturating op amps, diodes and switches
// contribute their local conductances and gains), the named source becomes
// a unit AC stimulus, and the complex MNA system is solved per frequency.
func (c *Circuit) AC(acSource string, freqs []float64) (*ACResult, error) {
	return c.ACContext(context.Background(), acSource, freqs)
}

// ACContext is AC under a context, checked between frequency points: a
// cancelled or deadlined sweep returns the prefix solved so far with
// Truncated set, mirroring the transient simulator's anytime contract.
//
// The sweep fans out across Circuit.Workers goroutines (0 = all CPUs):
// frequency points are independent complex solves over the same structure,
// dispatched by an ascending atomic counter to per-worker workspaces.
// Every worker count produces the identical result — each point's
// arithmetic is self-contained, results land in preallocated per-point
// slots, a failing sweep always reports the lowest failing frequency, and
// cancellation truncates to the contiguous prefix of completed points.
func (c *Circuit) ACContext(ctx context.Context, acSource string, freqs []float64) (*ACResult, error) {
	op, err := c.DCContext(ctx)
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled before any point could be solved: the empty
			// prefix is the anytime result.
			return &ACResult{Freqs: freqs[:0], V: map[Node][]complex128{}, Truncated: true, c: c}, nil
		}
		return nil, fmt.Errorf("mna: AC operating point: %w", err)
	}
	c.assignBranches()

	found := false
	for _, d := range c.devices {
		if d.kind == dVSource && d.name == acSource {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("mna: no voltage source %q for the AC stimulus", acSource)
	}

	res := &ACResult{Freqs: freqs, V: map[Node][]complex128{}, c: c}
	if c.Solver == SolverReference {
		for fi, f := range freqs {
			if ctx.Err() != nil {
				res.Freqs = freqs[:fi]
				res.Truncated = true
				return res, nil
			}
			sol, err := c.acSolve(op, acSource, f)
			if err != nil {
				return nil, fmt.Errorf("mna: AC at %g Hz: %w", f, err)
			}
			c.stats.Factorizations++
			for i := 1; i <= c.nodes; i++ {
				res.V[Node(i)] = append(res.V[Node(i)], sol[i])
			}
		}
		return res, nil
	}

	s, err := c.ensureSolver()
	if err != nil {
		return nil, err
	}
	tmpl := c.buildACTemplate(s, op, acSource)
	dim := s.dim

	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(freqs) {
		workers = len(freqs)
	}

	// Per-point solution slots (no append contention) and completion
	// marks; each index is written by exactly one worker.
	sols := make([]complex128, len(freqs)*(dim+1))
	done := make([]bool, len(freqs))
	var (
		next    atomic.Int64
		mu      sync.Mutex
		failIdx = -1
		failErr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := newACWorkspace(s)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(freqs) || ctx.Err() != nil {
					return
				}
				mu.Lock()
				bail := failIdx >= 0 && failIdx < i
				mu.Unlock()
				if bail {
					return
				}
				if err := ws.solvePoint(s, tmpl, freqs[i]); err != nil {
					mu.Lock()
					if failIdx < 0 || i < failIdx {
						failIdx = i
						failErr = fmt.Errorf("mna: AC at %g Hz: %w", freqs[i], err)
					}
					mu.Unlock()
					continue
				}
				copy(sols[i*(dim+1):(i+1)*(dim+1)], ws.x)
				done[i] = true
			}
		}()
	}
	wg.Wait()

	// Contiguous prefix of completed points: with ascending dispatch this
	// is everything on success, and the lowest failing index is always
	// attempted, so a genuine failure is reported deterministically.
	solved := 0
	for solved < len(freqs) && done[solved] {
		solved++
	}
	c.stats.Factorizations += int64(solved)
	if solved < len(freqs) {
		if ctx.Err() != nil {
			res.Freqs = freqs[:solved]
			res.Truncated = true
		} else {
			if failErr == nil {
				failErr = fmt.Errorf("mna: AC sweep stalled at %g Hz", freqs[solved])
			}
			return nil, failErr
		}
	}
	for i := 1; i <= c.nodes; i++ {
		col := make([]complex128, solved)
		for fi := 0; fi < solved; fi++ {
			col[fi] = sols[fi*(dim+1)+i]
		}
		res.V[Node(i)] = col
	}
	return res, nil
}

// acSolve assembles and solves the complex linearized system at frequency f.
func (c *Circuit) acSolve(op Solution, acSource string, f float64) ([]complex128, error) {
	dim := c.nodes
	for _, d := range c.devices {
		switch d.kind {
		case dVSource, dVCVS, dOpAmp, dFunc:
			dim++
		}
	}
	a := make([][]complex128, dim+1)
	for i := range a {
		a[i] = make([]complex128, dim+2) // last column is the RHS
	}
	omega := 2 * math.Pi * f
	vx := func(n Node) float64 { return op.V(n) }

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
		case dISource:
			// Independent current sources are DC bias: no AC component.
		case dVCVS:
			a[d.branch][d.a] += 1
			a[d.branch][d.b] -= 1
			a[d.branch][d.cp] -= complex(d.value, 0)
			a[d.branch][d.cm] += complex(d.value, 0)
			a[d.a][d.branch] += 1
			a[d.b][d.branch] -= 1
		case dDiode:
			v := vx(d.a) - vx(d.b)
			if v > 0.9 {
				v = 0.9
			}
			g := d.isat * math.Exp(v/d.vt) / d.vt
			if g < 1e-12 {
				g = 1e-12
			}
			addG(d.a, d.b, complex(g, 0))
		case dSwitch:
			r := d.roff
			if vx(d.cp)-vx(d.cm) > d.vth {
				r = d.ron
			}
			addG(d.a, d.b, complex(1/r, 0))
		case dOpAmp:
			// Local gain at the operating point.
			vc := vx(d.cp) - vx(d.cm)
			arg := d.gain * vc / d.vmax
			sech := 1 / math.Cosh(arg)
			dg := complex(d.gain*sech*sech, 0)
			a[d.branch][d.a] += 1
			a[d.branch][d.cp] -= dg
			a[d.branch][d.cm] += dg
			a[d.a][d.branch] += 1
		case dFunc:
			// Numeric Jacobian at the operating point.
			vals := make([]float64, len(d.ctrl))
			for i, n := range d.ctrl {
				vals[i] = vx(n)
			}
			base := d.f(vals)
			a[d.branch][d.a] += 1
			const eps = 1e-6
			for i, n := range d.ctrl {
				if n == Ground {
					continue
				}
				vals[i] += eps
				dp := (d.f(vals) - base) / eps
				vals[i] -= eps
				a[d.branch][n] -= complex(dp, 0)
			}
			a[d.a][d.branch] += 1
		}
	}

	// Gaussian elimination over the reduced complex system (drop ground).
	n := dim
	m := make([][]complex128, n)
	for i := 0; i < n; i++ {
		m[i] = make([]complex128, n+1)
		copy(m[i], a[i+1][1:])
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if cmplx.Abs(m[r][col]) > cmplx.Abs(m[p][col]) {
				p = r
			}
		}
		if cmplx.Abs(m[p][col]) < 1e-15 {
			return nil, fmt.Errorf("singular AC matrix at column %d", col+1)
		}
		m[col], m[p] = m[p], m[col]
		piv := m[col][col]
		for r := col + 1; r < n; r++ {
			fac := m[r][col] / piv
			if fac == 0 {
				continue
			}
			for k := col; k <= n; k++ {
				m[r][k] -= fac * m[col][k]
			}
		}
	}
	x := make([]complex128, n+1)
	for r := n - 1; r >= 0; r-- {
		sum := m[r][n]
		for k := r + 1; k < n; k++ {
			sum -= m[r][k] * x[k+1]
		}
		x[r+1] = sum / m[r][r]
	}
	return x, nil
}
