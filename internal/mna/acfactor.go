package mna

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// This file is the complex-domain twin of plan.go/factor.go for the AC
// sweep. The small-signal system has the same sparsity pattern as the
// transient system (every device stamps the same positions), so the stamp
// plan's CSR structure and fill analysis are reused verbatim; only the
// value arrays become complex128.
//
// Frequency points differ only in the capacitor jωC terms, so the sweep
// assembles a frequency-independent template once (all conductances,
// operating-point linearizations and the unit stimulus, in device order)
// and each point copies it and adds the purely imaginary capacitor terms.
// Complex addition is componentwise and no accumulator in the assembly can
// hold a -0 component, so deferring the capacitor terms is bit-identical
// to the reference's interleaved assembly.

// errACSparseMiss signals that a complex elimination needed a slot outside
// the shared sparse pattern. The sweep workers must not grow the shared
// plan concurrently, so the point is re-solved on the worker's private
// dense fallback instead (bit-identical: it runs acSolve's elimination
// sequence, skipping only exact-zero multipliers).
var errACSparseMiss = errors.New("mna: AC elimination fill outside sparse pattern")

// acTemplate is the frequency-independent part of the AC system.
type acTemplate struct {
	vals []complex128 // matrix template, same layout as solver.vals
	rhsv []complex128 // stimulus, by physical row (+ trash at dim)
	// capSlots/capC list the capacitor matrix slots (aa bb ab ba per
	// device, in device order) and values for the per-frequency jωC adds.
	capSlots []int
	capC     []float64
	// Dense twin of vals/capSlots: the per-worker fallback for points
	// whose complex pivot sequence walks outside the adaptively grown
	// pattern.
	dvals     []complex128
	capDSlots []int
}

// acWorkspace is one worker's private solve state for the parallel sweep.
type acWorkspace struct {
	vals, rhsv       []complex128
	dvals            []complex128 // dense fallback storage, lazily sized on first miss
	x                []complex128 // 1-based solution, x[0] = 0
	perm, pos, diagQ []int
}

func newACWorkspace(s *solver) *acWorkspace {
	return &acWorkspace{
		vals:  make([]complex128, len(s.vals)),
		rhsv:  make([]complex128, len(s.rhsv)),
		x:     make([]complex128, s.dim+1),
		perm:  make([]int, s.dim),
		pos:   make([]int, s.dim),
		diagQ: make([]int, s.dim),
	}
}

// solvePoint solves one frequency point into ws.x: template copy plus jωC,
// then the in-place complex elimination, falling back to the private dense
// storage when the sparse pattern proves too small for this point.
func (ws *acWorkspace) solvePoint(s *solver, t *acTemplate, f float64) error {
	ws.load(ws.vals, t.vals, t.capSlots, t, f)
	err := ws.sparseFactorSolve(s)
	if err == errACSparseMiss {
		return ws.denseFallback(s, t, f)
	}
	return err
}

// denseFallback re-solves a frequency point on the worker's private dense
// storage after a sparse pattern miss. The storage is sized on the first
// miss and reused for every later one — most sweeps never miss, so the
// common case carries no dense allocation at all, and a sweep that misses
// many points allocates exactly once per worker.
func (ws *acWorkspace) denseFallback(s *solver, t *acTemplate, f float64) error {
	if ws.dvals == nil {
		ws.dvals = make([]complex128, len(t.dvals))
	}
	ws.load(ws.dvals, t.dvals, t.capDSlots, t, f)
	return ws.denseFactorSolve(s.dim, ws.dvals)
}

// buildACTemplate assembles the frequency-independent complex system
// linearized at the operating point op, mirroring acSolve's device-order
// arithmetic exactly.
func (c *Circuit) buildACTemplate(s *solver, op Solution, acSource string) *acTemplate {
	t := &acTemplate{
		vals: make([]complex128, len(s.vals)),
		rhsv: make([]complex128, len(s.rhsv)),
	}
	v, rhs := t.vals, t.rhsv
	scratch := make([]float64, len(s.fnVals))
	dps := make([]float64, len(s.fnDps))
	for di, d := range c.devices {
		sl := s.slots[s.devOff[di]:]
		switch d.kind {
		case dResistor:
			g := complex(1/d.value, 0)
			v[sl[0]] += g
			v[sl[1]] += g
			v[sl[2]] -= g
			v[sl[3]] -= g
		case dCapacitor:
			t.capSlots = append(t.capSlots, sl[0], sl[1], sl[2], sl[3])
			t.capC = append(t.capC, d.value)
		case dVSource:
			stim := 0.0
			if d.name == acSource {
				stim = 1
			}
			v[sl[0]] += 1
			v[sl[1]] -= 1
			v[sl[2]] += 1
			v[sl[3]] -= 1
			rhs[sl[4]] += complex(stim, 0)
		case dISource:
			// Independent current sources are DC bias: no AC component.
		case dVCVS:
			v[sl[0]] += 1
			v[sl[1]] -= 1
			v[sl[2]] -= complex(d.value, 0)
			v[sl[3]] += complex(d.value, 0)
			v[sl[4]] += 1
			v[sl[5]] -= 1
		case dDiode:
			g, _ := d.diodeLinearize(op.V(d.a) - op.V(d.b))
			gc := complex(g, 0)
			v[sl[0]] += gc
			v[sl[1]] += gc
			v[sl[2]] -= gc
			v[sl[3]] -= gc
		case dSwitch:
			g := complex(1/d.switchR(op.V(d.cp)-op.V(d.cm)), 0)
			v[sl[0]] += g
			v[sl[1]] += g
			v[sl[2]] -= g
			v[sl[3]] -= g
		case dOpAmp:
			// Local gain at the operating point (no Newton limiting: the
			// AC linearization is a plain derivative, as in acSolve).
			vc := op.V(d.cp) - op.V(d.cm)
			arg := d.gain * vc / d.vmax
			sech := 1 / math.Cosh(arg)
			dg := complex(d.gain*sech*sech, 0)
			v[sl[0]] += 1
			v[sl[1]] -= dg
			v[sl[2]] += dg
			v[sl[4]] += 1
		case dFunc:
			nc := len(d.ctrl)
			v[sl[0]] += 1
			d.funcLinearize(op, scratch[:nc], dps[:nc])
			for i := 0; i < nc; i++ {
				v[sl[3+i]] -= complex(dps[i], 0)
			}
			v[sl[1]] += 1
		}
	}
	// Dense twin for the per-worker fallback. Copying the finished template
	// is exact — each slot accumulated identically — and the capacitor slot
	// list maps onto the same entries in the dense layout.
	dim := s.dim
	t.dvals = make([]complex128, dim*dim+1)
	dslot := make([]int, len(t.vals)) // CSR slot -> dense slot
	dslot[s.trash] = dim * dim
	for r := 0; r < dim; r++ {
		for q := s.rowPtr[r]; q < s.rowPtr[r+1]; q++ {
			dslot[q] = r*dim + s.colIdx[q]
			t.dvals[dslot[q]] = t.vals[q]
		}
	}
	for _, q := range t.capSlots {
		t.capDSlots = append(t.capDSlots, dslot[q])
	}
	return t
}

// load copies a template matrix (sparse or dense layout) into vals and the
// stimulus into ws.rhsv — fresh even after a sparse attempt partially
// eliminated it — then adds the capacitor jωC terms for frequency f at
// capSlots, in device order, matching the reference assembly.
func (ws *acWorkspace) load(vals, tmpl []complex128, capSlots []int, t *acTemplate, f float64) {
	copy(vals, tmpl)
	copy(ws.rhsv, t.rhsv)
	omega := 2 * math.Pi * f
	for i, cval := range t.capC {
		g := complex(0, omega*cval)
		sl := capSlots[4*i:]
		vals[sl[0]] += g
		vals[sl[1]] += g
		vals[sl[2]] -= g
		vals[sl[3]] -= g
	}
}

// denseFactorSolve runs the complex dense elimination over a in place,
// writing the solution into ws.x. The pivot rule is the reference acSolve
// rule: largest cmplx.Abs in logical row order, absolute 1e-15 singularity
// threshold.
func (ws *acWorkspace) denseFactorSolve(n int, a []complex128) error {
	rhs, perm := ws.rhsv, ws.perm
	for i := 0; i < n; i++ {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		p := col
		pv := cmplx.Abs(a[perm[p]*n+col])
		for r := col + 1; r < n; r++ {
			if av := cmplx.Abs(a[perm[r]*n+col]); av > pv {
				p, pv = r, av
			}
		}
		if pv < 1e-15 {
			return fmt.Errorf("singular AC matrix at column %d", col+1)
		}
		perm[col], perm[p] = perm[p], perm[col]
		pr := perm[col]
		piv := a[pr*n+col]
		prow := a[pr*n : pr*n+n]
		for r := col + 1; r < n; r++ {
			rr := perm[r]
			num := a[rr*n+col]
			if num == 0 {
				// fac = 0/piv = ±0: the reference skip, taken before the
				// (function-call) complex division.
				continue
			}
			fac := num / piv
			if fac == 0 {
				continue
			}
			row := a[rr*n : rr*n+n]
			for k := col; k < n; k++ {
				row[k] -= fac * prow[k]
			}
			rhs[rr] -= fac * rhs[pr]
		}
	}
	x := ws.x
	for r := n - 1; r >= 0; r-- {
		rr := perm[r]
		sum := rhs[rr]
		row := a[rr*n : rr*n+n]
		for k := r + 1; k < n; k++ {
			sum -= row[k] * x[k+1]
		}
		x[r+1] = sum / row[r]
	}
	x[0] = 0
	return nil
}

func (ws *acWorkspace) sparseFactorSolve(s *solver) error {
	n := s.dim
	ci, rp := s.colIdx, s.rowPtr
	cp, crow, cslot := s.colPtr, s.colRow, s.colSlot
	vals, rhs, perm, pos, diagQ := ws.vals, ws.rhsv, ws.perm, ws.pos, ws.diagQ
	for i := 0; i < n; i++ {
		perm[i] = i
		pos[i] = i
	}
	for col := 0; col < n; col++ {
		// Pivot: largest modulus among rows not yet eliminated, earliest
		// logical position on ties — acSolve's strict-> scan restricted to
		// the rows with a pattern entry at this column.
		p := -1
		plp := col
		pv := 0.0
		for k := cp[col]; k < cp[col+1]; k++ {
			rr := int(crow[k])
			lp := pos[rr]
			if lp < col {
				continue
			}
			av := cmplx.Abs(vals[cslot[k]])
			if av > pv || (av == pv && lp < plp) {
				p, plp, pv = k, lp, av
			}
		}
		if pv < 1e-15 {
			return fmt.Errorf("singular AC matrix at column %d", col+1)
		}
		pr := int(crow[p])
		other := perm[col]
		perm[col], perm[plp] = pr, other
		pos[pr], pos[other] = col, plp
		pq := int(cslot[p])
		diagQ[col] = pq
		pend := rp[pr+1]
		piv := vals[pq]
		for k := cp[col]; k < cp[col+1]; k++ {
			rr := int(crow[k])
			if pos[rr] <= col {
				continue
			}
			q := int(cslot[k])
			num := vals[q]
			if num == 0 {
				continue
			}
			fac := num / piv
			if fac == 0 {
				continue
			}
			end := rp[rr+1]
			w := q
			for pk := pq; pk < pend; pk++ {
				c2 := ci[pk]
				for w < end && ci[w] < c2 {
					w++
				}
				if w >= end || ci[w] != c2 {
					return errACSparseMiss
				}
				vals[w] -= fac * vals[pk]
			}
			rhs[rr] -= fac * rhs[pr]
		}
	}
	x := ws.x
	for r := n - 1; r >= 0; r-- {
		rr := perm[r]
		q := diagQ[r]
		sum := rhs[rr]
		for k := q + 1; k < rp[rr+1]; k++ {
			sum -= vals[k] * x[ci[k]+1]
		}
		x[r+1] = sum / vals[q]
	}
	x[0] = 0
	return nil
}
