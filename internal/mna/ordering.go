package mna

import (
	"fmt"
	"math"
	"math/bits"
)

// This file builds the SolverFast tier's symbolic state: a fill-reducing
// threshold-Markowitz ordering computed from the currently assembled matrix
// values, the exact fill closure of the stamped pattern under that ordering,
// and a flat static elimination schedule over the permuted storage.
//
// Unlike the exact tier — whose replay cache must track the reference's
// runtime partial pivoting and re-record whenever a pivot moves — the fast
// tier fixes the pivot sequence symbolically, once. Pivots are chosen to
// minimize Markowitz fill cost (rowCount-1)*(colCount-1) among candidates
// whose magnitude is at least fastSelRel of their column's maximum, so the
// ordering is simultaneously sparse and numerically defensible. The numeric
// factorization then runs the schedule with no pivot scans, no merge walks
// and no growth retries; a pivot-tolerance monitor (fast.go) detects the
// rare circuit whose values drift far enough to invalidate the ordering and
// triggers a one-shot reorder from current values.

const (
	// fastSelRel is the threshold-pivoting selection tolerance: an entry
	// is an acceptable pivot only when its magnitude is at least this
	// fraction of its column's maximum. Larger values favor stability,
	// smaller ones favor sparsity; 0.01 is the classical sparse-solver
	// compromise.
	fastSelRel = 0.01
	// fastMonitorRel is the factor-time pivot monitor: a pivot collapsing
	// below this fraction of its own ordering-time magnitude triggers a
	// reorder. The comparison is against the pivot's recorded value, not a
	// column scale — MNA columns routinely mix op-amp gain entries (~1e4)
	// with conductances (~1e-4), so any column-relative test would either
	// trip on every healthy small pivot or miss real collapses. Five
	// decades of drift means a device changed operating region out from
	// under the ordering.
	fastMonitorRel = 1e-5
)

// fastState is the SolverFast workspace: the ordering, the fill-closed CSR
// structure in elimination coordinates, the static schedule, the scatter
// map from plan slots into the permuted storage, and the numeric state
// (current LU, factorization-time snapshot for staleness detection).
type fastState struct {
	n int
	// perm/cperm map elimination step k to the original reduced row and
	// column it eliminates; rpos/cpos are the inverses.
	perm, cperm []int
	rpos, cpos  []int

	// Fill-closed CSR in elimination coordinates: row k is the k-th pivot
	// row, colIdx holds elimination column indices (ascending), diag[k] is
	// the slot of the (k,k) pivot.
	rowPtr []int32
	colIdx []int32
	diag   []int32

	// luvals holds the scattered matrix during factorization and the LU
	// factors afterwards (U on and above the diagonal, L multipliers
	// below); inv caches the pivot reciprocals.
	luvals []float64
	inv    []float64

	// Scatter map: plan slot src[i] lands in fast slot dst[i], which lives
	// in elimination column scatCol[i]. snap holds the scattered values of
	// the last factorization (the staleness reference) and colScale the
	// per-elimination-column magnitude at that time.
	src, dst []int32
	scatCol  []int32
	snap     []float64
	colScale []float64
	// pivRef[k] is |pivot k| on the ordering-time scratch, the reference
	// magnitude the factor-time monitor (fast.go) measures collapse against.
	pivRef []float64

	// sched is the flat elimination schedule: per column k,
	//   [nTargets, tailLen, {lslot, targetRow, dstSlot[tailLen]} x nTargets]
	// where lslot is the target row's L slot at column k, targetRow the
	// elimination row index (for the forward RHS pass), and dstSlot the
	// target slots aligned to the pivot row's post-diagonal tail.
	sched []int32

	w, y []float64 // permuted residual / delta work vectors

	// xprev holds the solution two accepted transient steps back, the
	// second point of the predictive start's linear extrapolation
	// (fast.go); havePrev gates the first steps and mid-run rebuilds.
	xprev    []float64
	havePrev bool

	haveLU        bool
	forceRefactor bool
}

// stampedEntries enumerates the stamped (structural) entries of the reduced
// system with their plan slots, in row-major order.
func (s *solver) stampedEntries(yield func(r, col, slot int)) {
	for r := 0; r < s.dim; r++ {
		for q := s.rowPtr[r]; q < s.rowPtr[r+1]; q++ {
			col := s.colIdx[q]
			if s.stampedPat[r*s.words+col/64]&(1<<(col%64)) != 0 {
				yield(r, col, q)
			}
		}
	}
}

// buildFastState derives the fast-tier workspace from the matrix currently
// assembled in s.vals/s.rhsv. It allocates freely: orderings happen once
// per layout of the plan and on each monitor-forced reorder, never in the
// steady state. No step of the Markowitz ordering scans or allocates an
// n×n array.
func (c *Circuit) buildFastState(s *solver) (*fastState, error) {
	c.stats.Orderings++
	n := s.dim
	fs := &fastState{n: n}

	var rows, cols, slots []int32
	s.stampedEntries(func(r, col, slot int) {
		rows = append(rows, int32(r))
		cols = append(cols, int32(col))
		slots = append(slots, int32(slot))
	})

	// --- Threshold-Markowitz ordering over the sparse active submatrix. ---
	// Each active row keeps its nonzero entries in active columns as a
	// column/value list; an exact zero, including one left by
	// cancellation, is no entry. colRows indexes the rows that have held an
	// entry in each column (a superset: entries can cancel), which finds a
	// pivot column's elimination targets without scanning the rows.
	rcol := make([][]int32, n)
	rval := make([][]float64, n)
	colRows := make([][]int32, n)
	for i, slot := range slots {
		if v := s.vals[slot]; v != 0 {
			r, col := rows[i], cols[i]
			rcol[r] = append(rcol[r], col)
			rval[r] = append(rval[r], v)
			colRows[col] = append(colRows[col], r)
		}
	}
	actR := make([]int, n) // remaining (active) original rows/cols, ascending
	actC := make([]int, n)
	for i := 0; i < n; i++ {
		actR[i], actC[i] = i, i
	}
	colCnt := make([]int, n)
	colMax := make([]float64, n)
	// pw scatters the pivot row's entries by column, marked in pmark with
	// the step number plus one; seen marks, per target row, the pivot
	// columns the row already holds.
	pw := make([]float64, n)
	pmark := make([]int, n)
	seen := make([]int, n)
	stamp := 0
	fs.perm = make([]int, n)
	fs.cperm = make([]int, n)
	fs.pivRef = make([]float64, n)
	for k := 0; k < n; k++ {
		// Active-submatrix column counts and maxima, recounted from the
		// row lists: one pass over the active entries.
		for _, col := range actC {
			colCnt[col] = 0
			colMax[col] = 0
		}
		for _, r := range actR {
			for j, col := range rcol[r] {
				colCnt[col]++
				if v := math.Abs(rval[r][j]); v > colMax[col] {
					colMax[col] = v
				}
			}
		}
		// Best acceptable candidate: minimal Markowitz cost, ties broken
		// by smallest original row then column (deterministic). Rows are
		// visited in ascending order, so once a row yields cost 0 no later
		// row can win.
		bestR, bestC, bestCost := -1, -1, math.MaxInt64
		for _, r := range actR {
			if bestCost == 0 {
				break
			}
			for j, c := range rcol[r] {
				col := int(c)
				v := math.Abs(rval[r][j])
				if v < fastSelRel*colMax[col] {
					continue
				}
				cost := (len(rcol[r]) - 1) * (colCnt[col] - 1)
				if cost < bestCost ||
					(cost == bestCost && (r < bestR || (r == bestR && col < bestC))) {
					bestR, bestC, bestCost = r, col, cost
				}
			}
		}
		if bestR < 0 {
			// Every active entry is zero: structurally or numerically
			// singular. Report the smallest remaining column, mirroring
			// the exact tier's error text.
			return nil, fmt.Errorf("mna: singular matrix at column %d (floating node?)", actC[0]+1)
		}
		fs.perm[k], fs.cperm[k] = bestR, bestC
		actR = removeInt(actR, bestR)
		actC = removeInt(actC, bestC)
		// Scatter the pivot row's other entries; the pivot row and column
		// leave the active submatrix.
		var piv float64
		pcols := rcol[bestR]
		for j, c := range pcols {
			if int(c) == bestC {
				piv = rval[bestR][j]
				continue
			}
			pw[c], pmark[c] = rval[bestR][j], k+1
		}
		fs.pivRef[k] = math.Abs(piv)
		rcol[bestR], rval[bestR] = nil, nil
		for _, r := range colRows[bestC] {
			rc, rv := rcol[r], rval[r]
			num := 0.0
			for j, c := range rc {
				if int(c) == bestC {
					num = rv[j]
					break
				}
			}
			if num == 0 {
				// No entry: the row pivoted, its entry cancelled, or a
				// duplicate index entry already eliminated it.
				continue
			}
			// row[col] -= f*pv over the pivot row's entries: update the
			// shared columns in place, drop the pivot column and any
			// cancelled entry, then append the fill.
			f := num / piv
			stamp++
			out := 0
			for j, c := range rc {
				if int(c) == bestC {
					continue
				}
				v := rv[j]
				if pmark[c] == k+1 {
					seen[c] = stamp
					v -= f * pw[c]
					if v == 0 {
						continue
					}
				}
				rc[out], rv[out] = c, v
				out++
			}
			rc, rv = rc[:out], rv[:out]
			for _, c := range pcols {
				if int(c) == bestC || seen[c] == stamp {
					continue
				}
				if v := -f * pw[c]; v != 0 {
					rc = append(rc, c)
					rv = append(rv, v)
					colRows[c] = append(colRows[c], int32(r))
				}
			}
			rcol[r], rval[r] = rc, rv
		}
	}
	fs.rpos = make([]int, n)
	fs.cpos = make([]int, n)
	for k := 0; k < n; k++ {
		fs.rpos[fs.perm[k]] = k
		fs.cpos[fs.cperm[k]] = k
	}

	// --- Symbolic fill closure under the chosen ordering. ---
	// The numeric scratch above skips rows whose multiplier cancelled to
	// zero, so its touched set can miss structure a later assembly needs.
	// This pass is purely structural: numeric fill is always a subset of
	// it, so every slot the schedule references exists.
	words := (n + 63) / 64
	if words == 0 {
		words = 1
	}
	B := make([]uint64, n*words)
	for i := range rows {
		er := fs.rpos[int(rows[i])]
		ec := fs.cpos[int(cols[i])]
		B[er*words+ec/64] |= 1 << (ec % 64)
	}
	for k := 0; k < n; k++ {
		// The Markowitz pivot is numerically nonzero but can sit on
		// positions the stamped pattern lacks (numeric fill): force it.
		B[k*words+k/64] |= 1 << (k % 64)
		kr := B[k*words : (k+1)*words]
		w0 := k / 64
		maskGE := ^uint64(0) << (k % 64)
		for i := k + 1; i < n; i++ {
			ir := B[i*words : (i+1)*words]
			if ir[w0]&(1<<(k%64)) == 0 {
				continue
			}
			ir[w0] |= kr[w0] & maskGE
			for wi := w0 + 1; wi < words; wi++ {
				ir[wi] |= kr[wi]
			}
		}
	}

	// --- CSR structure in elimination coordinates. ---
	nnz := 0
	for _, wd := range B {
		nnz += bits.OnesCount64(wd)
	}
	fs.rowPtr = make([]int32, n+1)
	fs.colIdx = make([]int32, 0, nnz)
	fs.diag = make([]int32, n)
	for k := 0; k < n; k++ {
		fs.rowPtr[k] = int32(len(fs.colIdx))
		base := k * words
		for wi := 0; wi < words; wi++ {
			wd := B[base+wi]
			for wd != 0 {
				b := bits.TrailingZeros64(wd)
				wd &^= 1 << b
				col := wi*64 + b
				if col == k {
					fs.diag[k] = int32(len(fs.colIdx))
				}
				fs.colIdx = append(fs.colIdx, int32(col))
			}
		}
	}
	fs.rowPtr[n] = int32(len(fs.colIdx))

	// --- Static elimination schedule, grouped by pivot column. ---
	// Targets of column k are the rows i>k with an L entry (i,k); their
	// update destinations are found by one merge walk here, at build time,
	// so the numeric factorization does pure indexed arithmetic.
	colCnt2 := make([]int32, n)
	for i := 0; i < n; i++ {
		for q := fs.rowPtr[i]; q < fs.diag[i]; q++ {
			colCnt2[fs.colIdx[q]]++
		}
	}
	colPtr := make([]int32, n+1)
	for i := 0; i < n; i++ {
		colPtr[i+1] = colPtr[i] + colCnt2[i]
	}
	tgtRow := make([]int32, colPtr[n])
	tgtSlot := make([]int32, colPtr[n])
	fill := make([]int32, n)
	copy(fill, colPtr[:n])
	for i := 0; i < n; i++ { // ascending i: per-column target order is deterministic
		for q := fs.rowPtr[i]; q < fs.diag[i]; q++ {
			col := fs.colIdx[q]
			at := fill[col]
			fill[col]++
			tgtRow[at] = int32(i)
			tgtSlot[at] = q
		}
	}
	for k := 0; k < n; k++ {
		pstart := fs.diag[k] + 1
		tail := fs.rowPtr[k+1] - pstart
		nT := colPtr[k+1] - colPtr[k]
		fs.sched = append(fs.sched, nT, tail)
		for t := colPtr[k]; t < colPtr[k+1]; t++ {
			i, lslot := tgtRow[t], tgtSlot[t]
			fs.sched = append(fs.sched, lslot, i)
			w := lslot + 1
			end := fs.rowPtr[i+1]
			for q := pstart; q < pstart+tail; q++ {
				j := fs.colIdx[q]
				for w < end && fs.colIdx[w] < j {
					w++
				}
				if w >= end || fs.colIdx[w] != j {
					panic("mna: fast symbolic closure missed fill")
				}
				fs.sched = append(fs.sched, w)
			}
		}
	}

	// --- Scatter map and numeric state. ---
	fs.src = slots
	fs.dst = make([]int32, len(slots))
	fs.scatCol = make([]int32, len(slots))
	for i := range slots {
		er := fs.rpos[int(rows[i])]
		ec := int32(fs.cpos[int(cols[i])])
		lo, hi := fs.rowPtr[er], fs.rowPtr[er+1]
		for lo < hi {
			mid := (lo + hi) / 2
			if fs.colIdx[mid] < ec {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		fs.dst[i] = lo
		fs.scatCol[i] = ec
	}
	fs.luvals = make([]float64, nnz)
	fs.inv = make([]float64, n)
	fs.snap = make([]float64, len(slots))
	fs.colScale = make([]float64, n)
	fs.xprev = make([]float64, n+1)
	fs.w = make([]float64, n)
	fs.y = make([]float64, n)
	return fs, nil
}

// removeInt deletes value v from a sorted active-index slice, preserving
// order.
func removeInt(a []int, v int) []int {
	for i, x := range a {
		if x == v {
			return append(a[:i], a[i+1:]...)
		}
	}
	return a
}
