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
// in IEEE-754 arithmetic.

// factorSolve factors the stamped CSR system in place and writes the
// solution into x (1-based, x[0]=0), driven by the plan's column-compressed
// index: each column's pivot scan and elimination touch only the physical
// rows with a pattern entry at that column (rows without one hold an exact
// zero there and can never win the strict pivot comparison or produce a
// nonzero multiplier). The inverse permutation pos classifies each column
// entry as U (row already a pivot), the pivot row, or an elimination
// target, and diagQ records each pivot's diagonal slot for
// back-substitution. Row exchanges are permutation updates, not data
// movement; the steady state allocates nothing.
func (s *solver) factorSolve(x Solution) error {
	n := s.dim
	vals, ci, rp := s.vals, s.colIdx, s.rowPtr
	rhs, perm, pos, scale := s.rhsv, s.perm, s.pos, s.scale
	cp, crow, cslot, diagQ := s.colPtr, s.colRow, s.colSlot, s.diagQ
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
	cursor := 0 // read position into the replay stream
	for col := 0; col < n; col++ {
		// Pivot: largest magnitude among rows not yet eliminated, earliest
		// logical position on ties — exactly the reference's strict-> scan
		// in logical row order, restricted to the rows that can win. When
		// the replay cache covers this column, the candidate set is read
		// from the cached segment (it is exact: the candidate rows are
		// fully determined by the pivot prefix, which has matched so far);
		// otherwise the column-compressed pattern is scanned and U entries
		// filtered by logical position.
		pr, pq, plp := -1, 0, col
		pv := 0.0
		if col < s.schedN {
			st := s.sched[cursor:]
			cpr, cpq := int(st[0]), int(st[1])
			tail, nt := int(st[2]), int(st[3])
			pr, pq, plp = cpr, cpq, pos[cpr]
			pv = vals[cpq]
			if pv < 0 {
				pv = -pv
			}
			off := 4
			for t := 0; t < nt; t++ {
				q, rr := int(st[off]), int(st[off+1])
				off += 2 + tail
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
				// eliminations. Source slots are the pivot row's
				// contiguous tail, destinations come from the stream.
				other := perm[col]
				perm[col], perm[plp] = pr, other
				pos[pr], pos[other] = col, plp
				diagQ[col] = pq
				piv := vals[pq]
				off = 4
				for t := 0; t < nt; t++ {
					q, rr := int(st[off]), int(st[off+1])
					dst := st[off+2 : off+2+tail]
					off += 2 + tail
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
					pk := pq
					for _, dj := range dst {
						vals[dj] -= f * vals[pk]
						pk++
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
		other := perm[col]
		perm[col], perm[plp] = pr, other
		pos[pr], pos[other] = col, plp
		diagQ[col] = pq
		pend := rp[pr+1]
		tail := pend - pq
		piv := vals[pq]
		s.sched = append(s.sched, int32(pr), int32(pq), int32(tail), 0)
		ntPos := len(s.sched) - 1
		nt := int32(0)
		for k := cp[col]; k < cp[col+1]; k++ {
			rr := int(crow[k])
			if pos[rr] <= col {
				continue // the pivot row itself, or a U entry
			}
			q := int(cslot[k])
			s.sched = append(s.sched, int32(q), int32(rr))
			// Merge walk over the pivot row's tail, recorded
			// value-independently so a later replay can apply it even when
			// this iteration's multiplier happens to be zero. A target
			// slot outside this row's pattern means elimination fill the
			// pattern has not seen yet: stop, and let the caller solve the
			// iteration with denseSolve.
			end := rp[rr+1]
			w := q
			for pk := pq; pk < pend; pk++ {
				c2 := ci[pk]
				for w < end && ci[w] < c2 {
					w++
				}
				if w >= end || ci[w] != c2 {
					return errPatternMiss
				}
				s.sched = append(s.sched, int32(w))
			}
			nt++
			num := vals[q]
			if num == 0 {
				continue
			}
			f := num / piv
			if f == 0 {
				continue
			}
			dst := s.sched[len(s.sched)-tail:]
			for j, pk := 0, pq; pk < pend; j, pk = j+1, pk+1 {
				vals[dst[j]] -= f * vals[pk]
			}
			rhs[rr] -= f * rhs[pr]
		}
		s.sched[ntPos] = nt
		cursor = len(s.sched)
		s.schedN = col + 1
	}
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
