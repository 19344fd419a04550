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
// plan concurrently, so the point is re-solved densely by eliminateAC, the
// reference tier's own elimination, instead. Misses are common on the fast
// tier, which reuses an exact plan that carries no fill: `go test
// ./internal/corpus` misses 9 of 208 exact-tier AC points and 196 of 308
// fast-tier ones, and the seed-7, N=200 campaign's solver and fast pairs
// miss 16 of 1,716 and 2,888 of 3,420.
var errACSparseMiss = errors.New("mna: AC elimination fill outside sparse pattern")

// acTemplate is the frequency-independent part of the AC system.
type acTemplate struct {
	vals []complex128 // matrix template, same layout as solver.vals
	rhsv []complex128 // stimulus, by physical row (+ trash at dim)
	// capSlots/capC list the capacitor matrix slots (aa bb ab ba per
	// device, in device order) and values for the per-frequency jωC adds.
	capSlots []int
	capC     []float64
}

// acWorkspace is one worker's private solve state for the parallel sweep.
type acWorkspace struct {
	vals, rhsv       []complex128
	dense            [][]complex128 // miss-path rows, allocated on the first miss
	x                []complex128   // 1-based solution, x[0] = 0
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
// then the in-place sparse complex elimination. On a pattern miss it
// reloads the point, copies the CSR rows into the workspace's dense rows
// (one backing array, allocated on the first miss and reused after) and
// runs eliminateAC.
func (ws *acWorkspace) solvePoint(s *solver, t *acTemplate, f float64) error {
	ws.load(t, f)
	err := ws.sparseFactorSolve(s)
	if err != errACSparseMiss {
		return err
	}
	ws.load(t, f)
	n := s.dim
	if ws.dense == nil {
		back := make([]complex128, n*(n+1))
		ws.dense = make([][]complex128, n)
		for r := range ws.dense {
			ws.dense[r] = back[r*(n+1) : (r+1)*(n+1)]
		}
	}
	// eliminateAC permutes the row headers, so fill each row through its
	// current header.
	for r, row := range ws.dense {
		clear(row)
		for q := s.rowPtr[r]; q < s.rowPtr[r+1]; q++ {
			row[s.colIdx[q]] = ws.vals[q]
		}
		row[n] = ws.rhsv[r]
	}
	return eliminateAC(ws.dense, ws.x)
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
		case dSwitch:
			g := complex(1/d.switchR(op.V(d.cp)-op.V(d.cm)), 0)
			v[sl[0]] += g
			v[sl[1]] += g
			v[sl[2]] -= g
			v[sl[3]] -= g
		case dOpAmp:
			dg := complex(d.opampSlope(op.V(d.cp)-op.V(d.cm)), 0)
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
	return t
}

// load copies the template into ws.vals and the stimulus into ws.rhsv —
// fresh even after a sparse attempt partially eliminated them — then adds
// the capacitor jωC terms for frequency f, in device order, matching the
// reference assembly.
func (ws *acWorkspace) load(t *acTemplate, f float64) {
	v := ws.vals
	copy(v, t.vals)
	copy(ws.rhsv, t.rhsv)
	omega := 2 * math.Pi * f
	for i, cval := range t.capC {
		g := complex(0, omega*cval)
		sl := t.capSlots[4*i:]
		v[sl[0]] += g
		v[sl[1]] += g
		v[sl[2]] -= g
		v[sl[3]] -= g
	}
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
