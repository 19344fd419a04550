package mna

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomCircuit builds the seeded random circuit number seed on 2–11
// nodes, with values spread over decades. A resistor tree ties every node to
// ground. A random subset of the nodes is driven, each by one
// voltage-defining device (V, op-amp or behavioral); every op-amp takes an
// undriven node as its inverting input, with a feedback resistor from the
// output. R, C and switches join random node pairs. One circuit in 16
// drives a node twice, so its system is singular.
func randomCircuit(seed int64) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := New()
	n := 2 + rng.Intn(10)
	nodes := make([]Node, n+1)
	for i := 1; i <= n; i++ {
		nodes[i] = c.NodeByName(fmt.Sprintf("n%d", i))
	}
	anyNode := func() Node { return nodes[rng.Intn(n+1)] }
	pair := func() (Node, Node) {
		a := nodes[1+rng.Intn(n)]
		b := anyNode()
		for b == a {
			b = anyNode()
		}
		return a, b
	}
	decade := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	sine := func(amp float64) Waveform {
		f, off := decade(1e3, 1e5), amp*(rng.Float64()-0.5)
		return func(t float64) float64 { return off + amp*math.Sin(2*math.Pi*f*t) }
	}
	for i := 1; i <= n; i++ {
		c.AddR(fmt.Sprintf("rt%d", i), nodes[i], nodes[rng.Intn(i)], decade(1e2, 1e5))
	}
	order := rng.Perm(n)
	nd := rng.Intn(n)
	driven, free := order[:nd], order[nd:]
	if rng.Intn(16) == 0 {
		driven = append(driven, order[rng.Intn(n)])
	}
	for k, i := range driven {
		name, out := fmt.Sprintf("drv%d", k), nodes[i+1]
		switch rng.Intn(3) {
		case 0:
			c.AddV(name, out, Ground, sine(decade(0.1, 5)))
		case 1:
			cm := nodes[free[rng.Intn(len(free))]+1]
			c.AddOpAmp(name, out, Ground, cm, decade(1e3, 2e5), []float64{4, 12}[rng.Intn(2)])
			c.AddR(name+"f", out, cm, decade(1e3, 1e6))
		case 2:
			ctrl := []Node{anyNode(), anyNode()}[:1+rng.Intn(2)]
			g := decade(0.1, 1)
			c.AddFunc(name, out, ctrl, func(v []float64) float64 {
				s := 0.0
				for _, x := range v {
					s += x
				}
				return 3 * math.Tanh(g*s)
			})
		}
	}
	for k, np := 0, 1+rng.Intn(n+1); k < np; k++ {
		name := fmt.Sprintf("p%d", k)
		a, b := pair()
		switch rng.Intn(3) {
		case 0:
			c.AddR(name, a, b, decade(1e1, 1e7))
		case 1:
			c.AddC(name, a, b, decade(1e-12, 1e-6), float64(rng.Intn(3)-1))
		case 2:
			c.AddSwitch(name, a, b, anyNode(), anyNode(), decade(1, 1e2), decade(1e6, 1e9), rng.Float64()-0.5)
		}
	}
	return c
}

// randomRecord renders DC and a 30-step transient of randomCircuit(seed)
// on one tier: every solution value in exact hex, errors verbatim, and the
// Newton iteration count and peak dimension.
func randomRecord(seed int64, mode SolverMode) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	c := randomCircuit(seed)
	c.Solver = mode
	dc, err := c.DC()
	add("DC %x err %v", []float64(dc), err)
	const h = 1.0 / (1 << 16) // 30*h is exact, so the window is 30 steps
	tr, err := c.Transient(30*h, h)
	add("transient err %v", err)
	for n := 1; tr != nil && n <= c.NumNodes(); n++ {
		add("node %d: %x", n, tr.V[Node(n)])
	}
	st := c.SolverStats()
	add("newton %d peak dim %d", st.NewtonIterations, st.PeakDim)
	return out
}

// TestExactMatchesReferenceRandom holds the exact tier bit-identical to
// SolverReference on seeded random circuits: DC and a transient, compared
// on every value, error text, Newton iteration count and peak dimension.
// Their switches and saturating op-amps move the pivot sequence between
// iterations, so the elimination schedule is re-recorded from
// mid-factorization columns.
func TestExactMatchesReferenceRandom(t *testing.T) {
	circuits := int64(3000)
	if raceDetector {
		circuits = 300
	}
	for seed := int64(0); seed < circuits; seed++ {
		want := randomRecord(seed, SolverReference)
		got := randomRecord(seed, SolverAuto)
		if len(got) != len(want) {
			t.Fatalf("seed %d: exact recorded %d observables, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: exact tier diverges:\n got %s\nwant %s", seed, got[i], want[i])
			}
		}
	}
}

// TestExactScheduleIsClosure pins the replay schedule's structure. After DC
// and after every transient step, each recorded column's target rows and
// source columns are exactly the fill closure of the stamped pattern under
// the recorded pivot rows, recomputed here from scratch, and every
// numerator and destination is the target row's slot at the column it
// names. The circuit's pattern also holds fill outside that closure, from
// pivot sequences met earlier, both below the pivots (rows a column's
// pattern lists that the schedule leaves out) and in the pivot rows' tails,
// so the schedule is narrower than the pattern on both sides. Seed 49 is
// one whose transient re-records from mid-factorization columns (43 times),
// so a closure rebuilt wrongly there shows.
func TestExactScheduleIsClosure(t *testing.T) {
	c := randomCircuit(49)
	var skippedRows, skippedSrc int
	check := func(when string) {
		rows, src, err := checkClosure(c.sol)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		skippedRows += rows
		skippedSrc += src
	}
	if _, err := c.DC(); err != nil {
		t.Fatal(err)
	}
	check("DC")
	c.OnSample = func(tm float64, _ Solution) { check(fmt.Sprintf("t=%g", tm)) }
	const h = 1.0 / (1 << 16)
	if _, err := c.Transient(30*h, h); err != nil {
		t.Fatal(err)
	}
	if skippedRows == 0 || skippedSrc == 0 {
		t.Fatalf("pattern outside the closure: %d rows below pivots, %d pivot-row slots; the circuit must have both",
			skippedRows, skippedSrc)
	}
	t.Logf("left out of the schedule: %d rows below pivots, %d pivot-row slots", skippedRows, skippedSrc)
}

// checkClosure recomputes the closure along s's recorded columns and
// reports the first disagreement, and how many pattern entries the schedule
// leaves out: rows below a pivot, and pivot-row tail slots.
func checkClosure(s *solver) (skippedRows, skippedSrc int, err error) {
	n, wd := s.dim, s.words
	has := func(set []uint64, r, col int) bool { return set[r*wd+col/64]&(1<<(col%64)) != 0 }
	slot := func(r, col int) int {
		k, ok := slices.BinarySearch(s.colIdx[s.rowPtr[r]:s.rowPtr[r+1]], col)
		if !ok {
			return -1
		}
		return s.rowPtr[r] + k
	}
	clo := slices.Clone(s.stampedPat)
	pivoted := make([]bool, n)
	off := 0
	for col := 0; col < s.schedN; col++ {
		pr, ns, nt := int(s.sched[off]), int(s.sched[off+1]), int(s.sched[off+2])
		src := s.sched[off+3 : off+3+ns]
		switch {
		case s.diagQ[col] != int(src[0]):
			return 0, 0, fmt.Errorf("column %d: diagonal slot %d, first source %d", col, s.diagQ[col], src[0])
		case int(s.backSeg[col]) != off:
			return 0, 0, fmt.Errorf("column %d: back-substitution segment %d, stream at %d", col, s.backSeg[col], off)
		}
		off += 3 + ns
		pivoted[pr] = true
		var wantSrc, gotSrc []int
		for c2 := col; c2 < n; c2++ {
			switch {
			case has(clo, pr, c2):
				wantSrc = append(wantSrc, c2)
			case has(s.pat, pr, c2):
				skippedSrc++
			}
		}
		for _, sk := range src {
			c2 := s.colIdx[sk]
			if slot(pr, c2) != int(sk) {
				return 0, 0, fmt.Errorf("column %d: source slot %d is not pivot row %d's", col, sk, pr)
			}
			gotSrc = append(gotSrc, c2)
		}
		if !slices.Equal(gotSrc, wantSrc) {
			return 0, 0, fmt.Errorf("column %d: source columns %v, closure %v", col, gotSrc, wantSrc)
		}
		var wantT, gotT []int
		for r := 0; r < n; r++ {
			switch {
			case pivoted[r]:
			case has(clo, r, col):
				wantT = append(wantT, r)
			case has(s.pat, r, col):
				skippedRows++
			}
		}
		for k := 0; k < nt; k++ {
			q, rr := int(s.sched[off]), int(s.sched[off+1])
			dst := s.sched[off+2 : off+2+ns]
			off += 2 + ns
			gotT = append(gotT, rr)
			if slot(rr, col) != q {
				return 0, 0, fmt.Errorf("column %d: numerator slot %d is not row %d's", col, q, rr)
			}
			for j, d := range dst {
				if slot(rr, gotSrc[j]) != int(d) {
					return 0, 0, fmt.Errorf("column %d: row %d destination %d is not its slot at column %d", col, rr, d, gotSrc[j])
				}
			}
		}
		slices.Sort(gotT)
		if !slices.Equal(gotT, wantT) {
			return 0, 0, fmt.Errorf("column %d: target rows %v, closure %v", col, gotT, wantT)
		}
		for _, r := range wantT {
			for _, c2 := range wantSrc {
				clo[r*wd+c2/64] |= 1 << (c2 % 64)
			}
		}
	}
	if off != len(s.sched) {
		return 0, 0, fmt.Errorf("stream holds %d words past the last column", len(s.sched)-off)
	}
	return skippedRows, skippedSrc, nil
}
