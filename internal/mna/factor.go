package mna

import "fmt"

// This file holds the in-place numeric factorization behind the stamp
// plan. It performs the reference eliminator's exact floating-point
// operation sequence — scaled-partial-pivot selection by strict comparison
// in logical row order, the f==0 row skip, elimination left-to-right, and
// ascending back-substitution — so its solutions are bit-identical to
// SolverReference (pinned corpus-wide by the equivalence tests).
//
// The eliminator skips operations on structural zeros. That is bit-exact,
// not approximate: stamped and fill slots start at +0 and no operation in
// the sequence can produce -0 in a matrix slot or right-hand-side
// accumulator (a+(-a) and x-x round to +0; the only -0 source would be an
// accumulator already at -0), so every skipped term is of the form
// acc -= f*(+0) or acc -= (+0)*x with acc != -0, which leaves acc unchanged
// in IEEE-754 arithmetic. The structural zeros are not only the slots
// outside the CSR pattern: the pattern is the union of the fill of every
// pivot sequence the circuit has met, while one factorization can write
// only the fill closure of the stamped pattern under its own pivots
// (absorb's rule, applied to the stamped pattern). Under a fixed pivot
// sequence no operation writes a slot outside that closure — a row without
// a closure bit at the pivot column holds +0 there, so its multiplier is
// zero and it is skipped, and a row with one takes in only the pivot row's
// closure — so such a slot keeps the +0 it was cleared to. A candidate row
// outside the closure holds an exact zero at the pivot column and cannot
// win the strict comparison, so the pivots and the singular test are those
// of the reference.

// factorSolve factors the stamped CSR system in place and writes the
// solution into x (1-based, x[0]=0). Each column either replays its cached
// schedule segment (see solver.sched) or, from the first column whose pivot
// differs from the cached one, is recorded afresh from the plan's
// column-compressed index: the pivot scan touches only the physical rows
// with a pattern entry at that column (rows without one hold an exact zero
// there and can never win the strict pivot comparison), and the inverse
// permutation pos classifies each column entry as U (row already a pivot),
// the pivot row, or an elimination target. Recording keeps the closure
// bitsets, so a segment lists only the targets and pivot-row slots inside
// the closure; back-substitution walks the same sources. Row exchanges are
// permutation updates, not data movement; the steady state allocates
// nothing.
func (s *solver) factorSolve(x Solution) error {
	n := s.dim
	vals, ci, rp := s.vals, s.colIdx, s.rowPtr
	rhs, perm, pos, scale := s.rhsv, s.perm, s.pos, s.scale
	cp, crow, cslot := s.colPtr, s.colRow, s.colSlot
	diagQ, backSeg := s.diagQ, s.backSeg
	for i := 0; i < n; i++ {
		perm[i] = i
		pos[i] = i
	}
	// Column scale from the stamped slots only: this pass runs before any
	// elimination, when every adaptively discovered fill slot still holds
	// an exact zero, so fill cannot contribute to a column's magnitude.
	sp, ss := s.scalePtr, s.scaleSlot
	for col := 0; col < n; col++ {
		m := 0.0
		for k := sp[col]; k < sp[col+1]; k++ {
			v := vals[ss[k]]
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		scale[col] = m
	}
	cursor := 0        // read position into the replay stream
	recording := false // closeTo has set the closure bitsets for this pass
	for col := 0; col < n; col++ {
		// Pivot: largest magnitude among rows not yet eliminated, earliest
		// logical position on ties — exactly the reference's strict-> scan
		// in logical row order, restricted to the rows that can win. When
		// the replay cache covers this column, the candidate set is read
		// from the cached segment (it is exact: the candidate rows are the
		// closure's, fully determined by the pivot prefix, which has
		// matched so far); otherwise the column-compressed pattern is
		// scanned and U entries filtered by logical position.
		pr, pq, plp := -1, 0, col
		pv := 0.0
		if col < s.schedN {
			st := s.sched[cursor:]
			cpr, ns, nt := int(st[0]), int(st[1]), int(st[2])
			src := st[3 : 3+ns]
			cpq := int(src[0])
			pr, pq, plp = cpr, cpq, pos[cpr]
			pv = vals[cpq]
			if pv < 0 {
				pv = -pv
			}
			off := 3 + ns
			for t := 0; t < nt; t++ {
				q, rr := int(st[off]), int(st[off+1])
				off += 2 + ns
				av := vals[q]
				if av < 0 {
					av = -av
				}
				if lp := pos[rr]; av > pv || (av == pv && lp < plp) {
					pr, pq, plp, pv = rr, q, lp, av
				}
			}
			if scale[col] == 0 || pv < 1e-12*scale[col] {
				return fmt.Errorf("mna: singular matrix at column %d (floating node?)", col+1)
			}
			if pr == cpr {
				// Cached pivot still wins: replay the recorded
				// eliminations (diagQ and backSeg still hold this
				// column's).
				other := perm[col]
				perm[col], perm[plp] = pr, other
				pos[pr], pos[other] = col, plp
				piv := vals[pq]
				off = 3 + ns
				for t := 0; t < nt; t++ {
					q, rr := int(st[off]), int(st[off+1])
					dst := st[off+2 : off+2+ns]
					off += 2 + ns
					num := vals[q]
					if num == 0 {
						// f = 0/piv = ±0: the reference's f==0 skip,
						// taken before the division.
						continue
					}
					f := num / piv
					if f == 0 {
						continue
					}
					src := src[:len(dst)]
					for j, dj := range dst {
						vals[dj] -= f * vals[src[j]]
					}
					rhs[rr] -= f * rhs[pr]
				}
				cursor += off
				continue
			}
			// The pivot moved: the cached suffix no longer describes the
			// elimination. Drop it and re-record from this column.
			s.schedN = col
			s.sched = s.sched[:cursor]
		} else {
			for k := cp[col]; k < cp[col+1]; k++ {
				rr := int(crow[k])
				lp := pos[rr]
				if lp < col {
					continue // already eliminated: this entry is in U
				}
				av := vals[cslot[k]]
				if av < 0 {
					av = -av
				}
				if av > pv || (av == pv && lp < plp) {
					pr, pq, plp, pv = rr, int(cslot[k]), lp, av
				}
			}
			if scale[col] == 0 || pv < 1e-12*scale[col] {
				return fmt.Errorf("mna: singular matrix at column %d (floating node?)", col+1)
			}
		}
		if !recording {
			s.closeTo(col)
			recording = true
		}
		other := perm[col]
		perm[col], perm[plp] = pr, other
		pos[pr], pos[other] = col, plp
		diagQ[col] = pq
		pend := rp[pr+1]
		piv := vals[pq]
		// Sources: the pivot row's tail slots at its closure columns, in
		// ascending column order. The pivot slot is first: a row without a
		// closure bit here holds +0 and cannot have won the pivot.
		wd := s.words
		w0, bit := col/64, uint64(1)<<(col%64)
		prc := s.clo[pr*wd : (pr+1)*wd]
		s.sched = append(s.sched, int32(pr), 0, 0)
		for pk := pq; pk < pend; pk++ {
			if c2 := ci[pk]; prc[c2/64]&(1<<(c2%64)) != 0 {
				s.sched = append(s.sched, int32(pk))
			}
		}
		srcAt := cursor + 3
		ns := len(s.sched) - srcAt
		s.sched[cursor+1] = int32(ns)
		backSeg[col] = int32(cursor)
		nt := 0
		prp := s.pat[pr*wd : (pr+1)*wd]
		for k := cp[col]; k < cp[col+1]; k++ {
			rr := int(crow[k])
			if pos[rr] <= col {
				continue // the pivot row itself, or a U entry
			}
			// A target row lacking a slot of the pivot row's pattern tail
			// means elimination fill the pattern has not seen yet: stop,
			// and let the caller solve the iteration with denseSolve. The
			// test is value-independent and covers rows outside the
			// closure too, so misses — and with them relayouts and Fill —
			// are judged on the pattern, not on the closure.
			if !covers(s.pat[rr*wd:(rr+1)*wd], prp, col) {
				return errPatternMiss
			}
			if s.clo[rr*wd+w0]&bit == 0 {
				continue // holds +0 at this column: no multiplier, no fill
			}
			// Destination slots: a merge walk of the target row against
			// the sources, recorded value-independently so a later replay
			// can apply it even when this iteration's multiplier happens
			// to be zero.
			q := int(cslot[k])
			s.sched = append(s.sched, int32(q), int32(rr))
			w := q
			for j := srcAt; j < srcAt+ns; j++ {
				c2 := ci[s.sched[j]]
				for ci[w] < c2 {
					w++
				}
				s.sched = append(s.sched, int32(w))
			}
			nt++
			mergeTail(s.clo[rr*wd:(rr+1)*wd], prc, col)
			num := vals[q]
			if num == 0 {
				continue
			}
			f := num / piv
			if f == 0 {
				continue
			}
			src := s.sched[srcAt : srcAt+ns]
			dst := s.sched[len(s.sched)-ns:]
			for j, dj := range dst {
				vals[dj] -= f * vals[src[j]]
			}
			rhs[rr] -= f * rhs[pr]
		}
		s.sched[cursor+2] = int32(nt)
		cursor = len(s.sched)
		s.schedN = col + 1
	}
	for r := n - 1; r >= 0; r-- {
		rr := perm[r]
		q := diagQ[r]
		sum := rhs[rr]
		o := int(backSeg[r])
		for _, k := range s.sched[o+4 : o+3+int(s.sched[o+1])] {
			sum -= vals[k] * x[ci[k]+1]
		}
		x[r+1] = sum / vals[q]
	}
	x[0] = 0
	return nil
}

// covers reports whether row bitset dst holds every bit of src at and
// beyond column k.
func covers(dst, src []uint64, k int) bool {
	w := k / 64
	if src[w]&^dst[w]&^(1<<(k%64)-1) != 0 {
		return false
	}
	for i := w + 1; i < len(src); i++ {
		if src[i]&^dst[i] != 0 {
			return false
		}
	}
	return true
}

// closeTo sets the closure bitsets for a recording that starts at column
// k0. A row pivoted before k0 keeps its bitset: the pivots of columns < k0
// are the last recording's, whose bitset of that row was final once the row
// was pivoted (later columns merge only into rows not yet pivoted). Every
// other row restarts from the stamped pattern and grows column by column
// through the recorded segments of columns < k0 — each recorded target
// takes in its pivot row's bits at and beyond the column, absorb's rule. A
// first recording, and the first after a relayout, starts at column 0 and
// so rebuilds every row.
func (s *solver) closeTo(k0 int) {
	if s.clo == nil {
		s.clo = make([]uint64, len(s.stampedPat))
	}
	wd, pos := s.words, s.pos
	for r, lp := range pos {
		if lp >= k0 {
			copy(s.clo[r*wd:(r+1)*wd], s.stampedPat[r*wd:(r+1)*wd])
		}
	}
	off := 0
	for col := 0; col < k0; col++ {
		st := s.sched[off:]
		pr, ns, nt := int(st[0]), int(st[1]), int(st[2])
		prc := s.clo[pr*wd : (pr+1)*wd]
		off += 3 + ns
		for t := 0; t < nt; t++ {
			rr := int(s.sched[off+1])
			off += 2 + ns
			if pos[rr] >= k0 {
				mergeTail(s.clo[rr*wd:(rr+1)*wd], prc, col)
			}
		}
	}
}

// denseSolve solves an iteration whose elimination left the pattern: the
// freshly stamped system is copied to a dense scratch and solved by
// eliminate, the reference's own arithmetic, so the solution is the
// reference's. The pattern then absorbs the fill closure of the pivots
// eliminate took, up to a singular column if any; the caller relayouts.
// Until its first miss every out-of-pattern position holds an exact zero,
// so the sparse elimination picks the same pivots and the missed slot is
// among those absorbed.
func (s *solver) denseSolve(x Solution) error {
	n := s.dim
	if s.dense == nil {
		s.dense = make([][]float64, n)
		for i := range s.dense {
			s.dense[i] = make([]float64, n+1)
		}
		s.pivRows = make([]int, n)
	}
	for r, row := range s.dense {
		clear(row)
		for q := s.rowPtr[r]; q < s.rowPtr[r+1]; q++ {
			row[s.colIdx[q]] = s.vals[q]
		}
		row[n] = s.rhsv[r]
	}
	k, err := eliminate(s.dense, x, s.pivRows)
	s.absorb(s.pivRows[:k])
	return err
}
