package mna

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

// activeChain builds a chain of inverting integrator stages, every other one
// loaded by a switch to ground that closes once its output passes 0.6 V:
// enough op-amp branch rows and cross-stage coupling that the sparse plan
// exercises pivoting, elimination fill and the replay cache, while staying
// deterministic (fixed stimulus, fixed step).
func activeChain(stages int) *Circuit {
	c := New()
	in := c.NodeByName("in")
	c.AddV("vin", in, Ground, func(t float64) float64 {
		return math.Sin(2 * math.Pi * 1e3 * t)
	})
	prev := in
	for i := 0; i < stages; i++ {
		sum := c.NodeByName(fmt.Sprintf("s%d", i))
		out := c.NodeByName(fmt.Sprintf("o%d", i))
		c.AddR(fmt.Sprintf("ri%d", i), prev, sum, 1e4)
		c.AddC(fmt.Sprintf("cf%d", i), sum, out, 1e-9, 0)
		c.AddR(fmt.Sprintf("rf%d", i), sum, out, 1e6)
		c.AddOpAmp(fmt.Sprintf("op%d", i), out, Ground, sum, 2e5, 12)
		if i%2 == 1 {
			c.AddSwitch(fmt.Sprintf("sl%d", i), out, Ground, out, Ground, 1, 1e9, 0.6)
		}
		prev = out
	}
	return c
}

// TestNewtonZeroAllocs pins the steady-state allocation behavior the stamp
// plan was built for: once the pattern has converged and the elimination
// schedule is recorded, a full Newton solve — clear, stamp, factor,
// back-substitute, damped update — allocates nothing in the exact tier's CSR
// factorization.
func TestNewtonZeroAllocs(t *testing.T) {
	t.Run("sparse", func(t *testing.T) {
		c := activeChain(6)
		c.Solver = SolverAuto
		solve, dim := c.pointSolver(context.Background())
		dst := make(Solution, dim+1)
		zero := make(Solution, dim+1)
		// Warm until the adaptive pattern and the replay cache have
		// settled; repeated identical solves pick identical pivots, so the
		// schedule never grows again.
		for i := 0; i < 3; i++ {
			if _, err := solve(dst, zero, zero, 0, 1e-6); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := solve(dst, zero, zero, 0, 1e-6); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("sparse Newton solve: %v allocs/op, want 0", allocs)
		}
	})
}

// TestSparsePatternGrowth pins the adaptive-fill path: the chain's op-amp
// branch rows force elimination fill outside the stamped pattern, the plan
// absorbs it without restarting the factorization (one factorization per
// Newton iteration), and the converged solution is still bit-exact against
// the reference solver.
func TestSparsePatternGrowth(t *testing.T) {
	ref := activeChain(6)
	ref.Solver = SolverReference
	want, err := ref.DC()
	if err != nil {
		t.Fatal(err)
	}

	c := activeChain(6)
	got, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	st := c.SolverStats()
	if st.Fill == 0 {
		t.Errorf("stats.Fill = 0: the chain was chosen to force adaptive elimination fill")
	}
	if st.Factorizations != st.NewtonIterations {
		t.Errorf("%d factorizations for %d Newton iterations: a pattern miss restarted the factorization",
			st.Factorizations, st.NewtonIterations)
	}
	if len(got) != len(want) {
		t.Fatalf("solution length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("DC[%d] = %x, reference %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// switchClipper builds a sine-driven RC stage clamped at ±1 V by two
// switches, each closing onto its reference source once the output passes
// it (dimension 7).
func switchClipper() *Circuit {
	c := New()
	in := c.NodeByName("in")
	out := c.NodeByName("out")
	hi := c.NodeByName("hi")
	lo := c.NodeByName("lo")
	c.AddV("vin", in, Ground, func(t float64) float64 {
		return 2 * math.Sin(2*math.Pi*1e3*t)
	})
	c.AddV("vhi", hi, Ground, func(float64) float64 { return 1 })
	c.AddV("vlo", lo, Ground, func(float64) float64 { return -1 })
	c.AddR("r", in, out, 1e3)
	c.AddC("c", out, Ground, 1e-8, 0)
	c.AddSwitch("shi", out, hi, out, hi, 10, 1e9, 0)
	c.AddSwitch("slo", out, lo, lo, out, 10, 1e9, 0)
	return c
}

// floatingChain is activeChain(1) plus two nodes joined only by a resistor:
// no DC path to ground, so every analysis fails on a singular pivot.
func floatingChain() *Circuit {
	c := activeChain(1)
	c.AddR("rfl", c.NodeByName("fa"), c.NodeByName("fb"), 1e3)
	return c
}

// exactRecord renders every observable of DC, the transient and an AC
// sweep, floats in exact hex, errors verbatim. The window drives
// activeChain(3)'s last stage into saturation while Newton still converges
// on every circuit.
func exactRecord(build func() *Circuit, mode SolverMode) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	c := build()
	c.Solver = mode
	dc, err := c.DC()
	add("DC %x err %v", []float64(dc), err)
	tr, err := c.Transient(9e-5, 1e-6)
	add("transient err %v", err)
	for n := 1; tr != nil && n <= c.NumNodes(); n++ {
		for i, v := range tr.V[Node(n)] {
			add("transient node %d sample %d: %x", n, i, v)
		}
	}
	ac, err := c.AC("vin", LogSweep(10, 1e6, 13))
	add("AC err %v", err)
	for n := 1; ac != nil && n <= c.NumNodes(); n++ {
		for i, v := range ac.V[Node(n)] {
			add("AC node %d point %d: %x", n, i, v)
		}
	}
	return out
}

// TestExactMatchesReferenceSmall pins the exact tier where the corpus
// equivalence suite never reaches (its smallest circuit has dimension 17):
// at dimensions 2–11 the CSR factorization's DC, transient and AC sweep
// are bit-identical to SolverReference, and a floating node fails with the
// reference's error text.
func TestExactMatchesReferenceSmall(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Circuit
	}{
		{"chain0", func() *Circuit { return activeChain(0) }},
		{"chain1", func() *Circuit { return activeChain(1) }},
		{"chain2", func() *Circuit { return activeChain(2) }},
		{"chain3", func() *Circuit { return activeChain(3) }},
		{"clipper", switchClipper},
		{"floating", floatingChain},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := exactRecord(tc.build, SolverReference)
			got := exactRecord(tc.build, SolverAuto)
			if len(got) != len(want) {
				t.Fatalf("exact recorded %d observables, reference %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("exact tier diverges:\n got %s\nwant %s", got[i], want[i])
				}
			}
			if tc.name == "floating" && !strings.Contains(want[0], "singular matrix") {
				t.Errorf("floating node did not fail singular: %s", want[0])
			}
		})
	}
}

// sharedScratchChain is activeChain(7) plus a behavioral source whose
// closure writes scratch it shares across calls, as Elaborate's behavioral
// closures do: two goroutines calling it at once race.
func sharedScratchChain() *Circuit {
	c := activeChain(7)
	out := c.NodeByName("fo")
	tv := make([]float64, 2)
	c.AddFunc("f", out, []Node{c.NodeByName("o4"), c.NodeByName("o5")}, func(v []float64) float64 {
		copy(tv, v)
		return tv[0] + tv[0]*tv[1]
	})
	c.AddR("rl", out, Ground, 1e3)
	return c
}

// TestACParallelDeterministic pins the parallel sweep contract on every
// tier: every worker count produces bitwise-identical complex responses.
// Run under -race it also checks the per-worker scratch isolation and that
// no behavioral closure runs inside the fan-out.
func TestACParallelDeterministic(t *testing.T) {
	freqs := LogSweep(10, 1e7, 97)
	for _, mode := range []SolverMode{SolverReference, SolverAuto, SolverFast} {
		sweep := func(workers int) *ACResult {
			t.Helper()
			c := sharedScratchChain()
			c.Solver = mode
			res, err := c.acSweep(context.Background(), "vin", freqs, workers)
			if err != nil {
				t.Fatalf("%v, workers=%d: %v", mode, workers, err)
			}
			return res
		}
		want := sweep(1)
		for _, workers := range []int{2, 8} {
			got := sweep(workers)
			for n, col := range want.V {
				gcol := got.V[n]
				if len(gcol) != len(col) {
					t.Fatalf("%v, workers=%d node %d: %d points, want %d", mode, workers, n, len(gcol), len(col))
				}
				for i := range col {
					if math.Float64bits(real(gcol[i])) != math.Float64bits(real(col[i])) ||
						math.Float64bits(imag(gcol[i])) != math.Float64bits(imag(col[i])) {
						t.Errorf("%v, workers=%d node %d point %d: %v, want %v", mode, workers, n, i, gcol[i], col[i])
					}
				}
			}
		}
	}
}

// TestACCancelledBeforeSweep pins the anytime contract's degenerate case: a
// context cancelled before the operating point completes yields the empty
// truncated prefix, not an error.
func TestACCancelledBeforeSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := activeChain(4)
	res, err := c.ACContext(ctx, "vin", LogSweep(10, 1e6, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || len(res.Freqs) != 0 {
		t.Fatalf("Truncated=%v len(Freqs)=%d, want truncated empty prefix", res.Truncated, len(res.Freqs))
	}
}

// BenchmarkMNASolve measures one warm Newton solve (clear + stamp + factor +
// back-substitute) through the reference eliminator and the exact tier on
// the same 23-dimension chain. This is the inner loop of every transient
// step.
func BenchmarkMNASolve(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode SolverMode
	}{
		{"reference", SolverReference},
		{"exact", SolverAuto},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := activeChain(7)
			c.Solver = tc.mode
			solve, dim := c.pointSolver(context.Background())
			dst := make(Solution, dim+1)
			zero := make(Solution, dim+1)
			for i := 0; i < 3; i++ {
				if _, err := solve(dst, zero, zero, 0, 1e-6); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solve(dst, zero, zero, 0, 1e-6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkACSweepParallel measures the full AC sweep (operating point,
// small-signal assembly and 256 complex solves) across worker counts.
func BenchmarkACSweepParallel(b *testing.B) {
	freqs := LogSweep(10, 1e8, 256)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := activeChain(7)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.acSweep(ctx, "vin", freqs, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
