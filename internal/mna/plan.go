package mna

import (
	"errors"
	"math/bits"
	"slices"
)

// This file builds the stamp plan: a one-time structural analysis of the
// circuit that lets every subsequent Newton iteration restamp and refactor
// the MNA system without allocating or re-deriving matrix positions.
//
// The plan records, per device, the flat storage slots of the entries its
// companion model writes (device.entries, in the exact order the reference
// stamper writes them, so aliased slots accumulate identically). The
// matrix is stored as CSR over an adaptive pattern: it starts as exactly
// the stamped entries and grows on demand.
// Because partial pivoting picks pivots from runtime values, the fill
// pattern of an elimination cannot be known in advance without a ruinous
// over-approximation (closing the stamped pattern under every possible
// pivot sequence fills ~half the matrix on real circuits). Instead the
// numeric factorization stops at the first write that lands outside the
// pattern. That Newton iteration is then restamped and solved on a dense
// scratch by the reference eliminator itself (denseSolve), which yields the
// whole pivot sequence; the pattern absorbs that sequence's symbolic fill
// closure and is relaid out once. Growth is monotone, a Newton iteration
// costs one factorization and at most one relayout, and iterations whose
// pivot sequence the pattern already covers run with zero misses and zero
// allocations.

// errPatternMiss is returned by the factorization when an elimination
// update needed a slot outside the current pattern: the caller restamps and
// solves the iteration with denseSolve, which grows the pattern.
var errPatternMiss = errors.New("mna: elimination fill outside the sparse pattern")

// solver is the reusable linear-system workspace of a circuit: CSR matrix
// storage, the elimination scratch, and the Newton iterate buffers. It is
// rebuilt only when the circuit's structure changes.
type solver struct {
	dim  int // reduced system dimension (nodes + branches)
	ndev int // device count at plan time (structure-change detection)

	// pat holds the per-row column bitsets of the current CSR pattern;
	// words is the row stride in uint64s. stampedPat is the initial
	// (stamped-entry) pattern, kept so relayouts can tell stamped slots
	// from adaptively discovered fill.
	pat        []uint64
	stampedPat []uint64
	words      int

	// vals is the CSR value array; one extra slot at the end absorbs
	// writes aimed at the folded-away ground row/column.
	vals []float64
	// rowPtr/colIdx describe the CSR pattern. Column indices are ascending
	// within each row.
	rowPtr, colIdx []int
	trash          int // index of the ground write-off slot in vals

	// rhsv is the right-hand side by physical (reduced) row, with a
	// ground write-off slot at index dim.
	rhsv []float64

	perm  []int // logical→physical row permutation (pivoting)
	pos   []int // physical→logical inverse of perm
	diagQ []int // per-logical-row diagonal slot, set when recording
	scale []float64

	// Column-compressed view of the CSR pattern: for column col, entries
	// colPtr[col]..colPtr[col+1] give the physical rows with a pattern slot
	// at col (colRow) and the slot's index in vals (colSlot). The
	// factorization reads columns directly instead of advancing per-row
	// cursors.
	colPtr  []int
	colRow  []int32
	colSlot []int32

	// scalePtr/scaleSlot group the stamped value slots by column: the
	// pivot-scale pass runs before any elimination, when every fill slot
	// still holds an exact zero, so only stamped slots can contribute to a
	// column's magnitude, and grouping them lets each column's maximum be
	// reduced locally.
	scalePtr  []int32
	scaleSlot []int32

	// Elimination replay cache. Partial pivoting re-selects pivots from
	// runtime values every factorization, but on a converging Newton
	// iteration the magnitudes move slowly and the chosen sequence is
	// almost always the previous one. sched caches, per column, the
	// elimination under the last pivot sequence as a flat stream of
	// segments
	//   [pivotRow, nSrc, nTargets, src[nSrc],
	//    {numSlot, targetRow, dst[nSrc]} x nTargets]
	// valid for the first schedN columns. A segment covers the fill
	// closure of the stamped pattern under the sequence's own pivots, not
	// the whole CSR pattern (which also holds the fill of pivot sequences
	// met earlier): the targets are the rows with a closure bit at the
	// column, and src lists the pivot row's slots at its closure columns,
	// pivot slot first; the rest of the pattern holds +0 throughout
	// (factor.go). A factorization replays a column when its freshly
	// scanned pivot matches the cached one (the cached candidate set is
	// exact as long as every earlier column matched); the first mismatch
	// truncates the stream and re-records from there. Replayed columns
	// skip the U-entry filtering, the merge walks and the closure
	// bookkeeping entirely. backSeg[col] is the offset of column col's
	// segment, whose sources back-substitution walks. clo holds the
	// closure's per-row bitsets while recording (the shape of
	// stampedPat), allocated on the first recording. layout() resets the
	// cache.
	sched   []int32
	schedN  int
	backSeg []int32
	clo     []uint64

	next Solution // Newton update workspace of the exact and fast steps

	// slots packs per-device write positions, in device.entries order;
	// devOff[i] is device i's offset.
	slots  []int
	devOff []int

	// fnVals/fnDps are shared scratch for behavioral (dFunc) Jacobians,
	// sized to the widest control list.
	fnVals, fnDps []float64

	// ops lists the op-amp devices, whose Newton-limiting memory
	// (lastVc/hasLast) advances on every stamp. The restamp of a pattern
	// miss must replay the same linearization, so the exact tier's Newton
	// step snapshots the state here before stamping and restores it before
	// the restamp.
	ops   []*device
	opVc  []float64
	opHas []bool

	// dense and pivRows are denseSolve's scratch: the reduced system as
	// rows of dim coefficients plus the right-hand side, and the row each
	// column pivoted on. Allocated on the first pattern miss.
	dense   [][]float64
	pivRows []int

	// fast is the SolverFast tier's ordered workspace (fast.go), built
	// lazily from assembled values and invalidated by layout(): adaptive
	// pattern growth renumbers the plan slots the fast scatter map indexes.
	fast *fastState
	// fastOff permanently routes SolverFast solves through the exact tier
	// for this circuit: set when the fast tier's ordering or scheduled
	// factorization fails (e.g. a numerically singular scratch at some
	// mid-Newton iterate the exact tier's runtime pivoting survives).
	fastOff bool

	stamped int // stamped (structural) slot count
	fill    int // adaptively discovered fill slot count
}

func (s *solver) clear() {
	for i := range s.vals {
		s.vals[i] = 0
	}
	for i := range s.rhsv {
		s.rhsv[i] = 0
	}
}

// absorb grows the pattern by the symbolic fill closure of an elimination
// whose column k pivoted on row piv[k]: column by column, every row not yet
// pivoted with a pattern bit at k takes in the pivot row's bits at and
// beyond k. A row's bit at k is final once column k is reached (later
// columns add only bits beyond them), so one pass yields every slot the
// elimination writes: the least pattern these pivots run through without a
// miss.
func (s *solver) absorb(piv []int) {
	pos := s.pos // scratch: the column each row pivots on
	for r := range pos {
		pos[r] = len(piv)
	}
	for k, r := range piv {
		pos[r] = k
	}
	for k, pr := range piv {
		w, bit := k/64, uint64(1)<<(k%64)
		src := s.pat[pr*s.words : (pr+1)*s.words]
		for r := 0; r < s.dim; r++ {
			if pos[r] <= k || s.pat[r*s.words+w]&bit == 0 {
				continue
			}
			mergeTail(s.pat[r*s.words:(r+1)*s.words], src, k)
		}
	}
}

// mergeTail ORs the pivot row's bits at and beyond column k into a target
// row's: the fill one elimination step writes.
func mergeTail(dst, src []uint64, k int) {
	w := k / 64
	dst[w] |= src[w] &^ (1<<(k%64) - 1)
	for i := w + 1; i < len(dst); i++ {
		dst[i] |= src[i]
	}
}

// rhsCol is the column entries reports for a right-hand-side row.
const rhsCol = -1

// entries enumerates the positions the device's stamp writes, in stampRef's
// write order: matrix positions (r, col) and right-hand-side rows
// (r, rhsCol), in MNA coordinates with ground included. It is the one
// description of a kind's footprint: the stamped pattern and the plan's
// slot lists are built from it, and stampInto writes through the slots in
// its order.
func (d *device) entries(yield func(r, col int)) {
	a, b, br := int(d.a), int(d.b), d.branch
	switch d.kind {
	case dResistor, dSwitch:
		yield(a, a)
		yield(b, b)
		yield(a, b)
		yield(b, a)
	case dCapacitor:
		yield(a, a)
		yield(b, b)
		yield(a, b)
		yield(b, a)
		yield(a, rhsCol)
		yield(b, rhsCol)
	case dVSource:
		yield(br, a)
		yield(br, b)
		yield(a, br)
		yield(b, br)
		yield(br, rhsCol)
	case dOpAmp:
		yield(br, a)
		yield(br, int(d.cp))
		yield(br, int(d.cm))
		yield(br, rhsCol)
		yield(a, br)
	case dFunc:
		yield(br, a)
		for _, n := range d.ctrl {
			yield(br, int(n))
		}
		yield(br, rhsCol)
		yield(a, br)
	}
}

// ensureSolver returns the circuit's stamp plan, rebuilding it if the
// structure (dimension or device count) changed since the last analysis.
func (c *Circuit) ensureSolver() *solver {
	nb := c.assignBranches()
	dim := c.nodes + nb
	if s := c.sol; s != nil && s.dim == dim && s.ndev == len(c.devices) {
		return s
	}

	s := &solver{dim: dim, ndev: len(c.devices)}
	s.words = (dim + 63) / 64
	if s.words == 0 {
		s.words = 1
	}

	// Stamped pattern over the reduced system (ground folded away).
	s.pat = make([]uint64, dim*s.words)
	for _, d := range c.devices {
		d.entries(func(r, col int) {
			if r == 0 || col <= 0 {
				return
			}
			s.pat[(r-1)*s.words+(col-1)/64] |= 1 << ((col - 1) % 64)
		})
	}
	for _, wd := range s.pat {
		s.stamped += bits.OnesCount64(wd)
	}
	s.stampedPat = append([]uint64(nil), s.pat...)

	s.rhsv = make([]float64, dim+1)
	s.perm = make([]int, dim)
	s.scale = make([]float64, dim)
	s.next = make(Solution, dim+1)
	s.pos = make([]int, dim)
	s.diagQ = make([]int, dim)
	s.backSeg = make([]int32, dim)
	for _, d := range c.devices {
		if d.kind == dOpAmp {
			s.ops = append(s.ops, d)
		}
	}
	s.opVc = make([]float64, len(s.ops))
	s.opHas = make([]bool, len(s.ops))
	c.layout(s)

	c.sol = s
	if dim > c.stats.PeakDim {
		c.stats.PeakDim = dim
	}
	return s
}

// layout (re)derives the value storage and per-device slot lists from the
// current pattern. It runs once per plan and again after each adaptive
// pattern growth; stamped values do not survive it.
func (c *Circuit) layout(s *solver) {
	dim := s.dim
	s.fast = nil // plan slots are renumbered below; the fast scatter map is stale
	nnz := 0
	for _, wd := range s.pat {
		nnz += bits.OnesCount64(wd)
	}
	s.rowPtr = make([]int, dim+1)
	s.colIdx = make([]int, 0, nnz)
	stampedIdx := make([]int32, 0, s.stamped)
	stampedCol := make([]int32, 0, s.stamped)
	for r := 0; r < dim; r++ {
		s.rowPtr[r] = len(s.colIdx)
		base := r * s.words
		for i := 0; i < s.words; i++ {
			wd := s.pat[base+i]
			for wd != 0 {
				b := bits.TrailingZeros64(wd)
				if s.stampedPat[base+i]&(1<<b) != 0 {
					stampedIdx = append(stampedIdx, int32(len(s.colIdx)))
					stampedCol = append(stampedCol, int32(i*64+b))
				}
				s.colIdx = append(s.colIdx, i*64+b)
				wd &^= 1 << b
			}
		}
	}
	s.rowPtr[dim] = len(s.colIdx)

	// Stamped slots grouped by column, for the pivot-scale pass.
	s.scalePtr = make([]int32, dim+1)
	for _, col := range stampedCol {
		s.scalePtr[col+1]++
	}
	for i := 0; i < dim; i++ {
		s.scalePtr[i+1] += s.scalePtr[i]
	}
	s.scaleSlot = make([]int32, len(stampedIdx))
	fillAt := make([]int32, dim)
	copy(fillAt, s.scalePtr[:dim])
	for k, col := range stampedCol {
		s.scaleSlot[fillAt[col]] = stampedIdx[k]
		fillAt[col]++
	}
	s.trash = nnz
	s.vals = make([]float64, nnz+1)
	s.fill = nnz - s.stamped
	// Slot indices changed: the elimination replay cache is stale.
	s.sched = s.sched[:0]
	s.schedN = 0

	// Column-compressed twin of the row pattern, for direct pivot scans
	// and column elimination without per-row cursors.
	s.colPtr = make([]int, dim+1)
	for _, col := range s.colIdx {
		s.colPtr[col+1]++
	}
	for i := 0; i < dim; i++ {
		s.colPtr[i+1] += s.colPtr[i]
	}
	s.colRow = make([]int32, nnz)
	s.colSlot = make([]int32, nnz)
	next := make([]int, dim)
	copy(next, s.colPtr[:dim])
	for r := 0; r < dim; r++ {
		for q := s.rowPtr[r]; q < s.rowPtr[r+1]; q++ {
			col := s.colIdx[q]
			k := next[col]
			next[col] = k + 1
			s.colRow[k] = int32(r)
			s.colSlot[k] = int32(q)
		}
	}

	// slotOf maps an entry to its storage slot: a right-hand-side row to
	// its rhsv index, a matrix position to its vals slot. Ground writes go
	// to the write-off slots.
	slotOf := func(r, col int) int {
		switch {
		case col == rhsCol && r == 0:
			return dim
		case col == rhsCol:
			return r - 1
		case r == 0 || col == 0:
			return s.trash
		}
		k, ok := slices.BinarySearch(s.colIdx[s.rowPtr[r-1]:s.rowPtr[r]], col-1)
		if !ok {
			panic("mna: stamped entry missing from CSR pattern")
		}
		return s.rowPtr[r-1] + k
	}

	// Per-device slot lists, in entries order.
	s.slots = s.slots[:0]
	if s.devOff == nil {
		s.devOff = make([]int, len(c.devices))
	}
	maxCtrl := 0
	for di, d := range c.devices {
		s.devOff[di] = len(s.slots)
		d.entries(func(r, col int) { s.slots = append(s.slots, slotOf(r, col)) })
		maxCtrl = max(maxCtrl, len(d.ctrl))
	}
	if s.fnVals == nil {
		s.fnVals = make([]float64, maxCtrl)
		s.fnDps = make([]float64, maxCtrl)
	}

	c.stats.Nonzeros = s.stamped
	c.stats.Fill = s.fill
}

// stampInto builds the linearized MNA system around the iterate x at time t
// by writing through the plan's precomputed slots, indexed in entries
// order. It performs the same arithmetic in the same order as stampRef
// (entries follows the reference write order, so aliased slots accumulate
// identically) and allocates nothing.
func (c *Circuit) stampInto(s *solver, x, prev Solution, t, h float64) {
	v, rhs := s.vals, s.rhsv
	for di, d := range c.devices {
		sl := s.slots[s.devOff[di]:]
		switch d.kind {
		case dResistor:
			g := 1 / d.value
			v[sl[0]] += g
			v[sl[1]] += g
			v[sl[2]] -= g
			v[sl[3]] -= g
		case dCapacitor:
			if h <= 0 {
				// DC: tiny conductance to avoid floating nodes.
				g := 1e-12
				v[sl[0]] += g
				v[sl[1]] += g
				v[sl[2]] -= g
				v[sl[3]] -= g
				continue
			}
			g := d.value / h
			ieq := g * (prev.V(d.a) - prev.V(d.b))
			v[sl[0]] += g
			v[sl[1]] += g
			v[sl[2]] -= g
			v[sl[3]] -= g
			rhs[sl[4]] += ieq
			rhs[sl[5]] -= ieq
		case dVSource:
			v[sl[0]] += 1
			v[sl[1]] -= 1
			v[sl[2]] += 1
			v[sl[3]] -= 1
			rhs[sl[4]] += d.wave(t)
		case dSwitch:
			g := 1 / d.switchR(x.V(d.cp)-x.V(d.cm))
			v[sl[0]] += g
			v[sl[1]] += g
			v[sl[2]] -= g
			v[sl[3]] -= g
		case dOpAmp:
			dg, r := d.opampLinearize(x.V(d.cp) - x.V(d.cm))
			v[sl[0]] += 1
			v[sl[1]] -= dg
			v[sl[2]] += dg
			rhs[sl[3]] += r
			v[sl[4]] += 1
		case dFunc:
			nc := len(d.ctrl)
			v[sl[0]] += 1
			r := d.funcLinearize(x, s.fnVals[:nc], s.fnDps[:nc])
			for i := 0; i < nc; i++ {
				v[sl[1+i]] -= s.fnDps[i]
			}
			rhs[sl[1+nc]] += r
			v[sl[2+nc]] += 1
		}
	}
}
