package mna

import (
	"context"
	"math"
	"testing"
)

func TestACRCLowPassCorner(t *testing.T) {
	// RC low-pass: fc = 1/(2*pi*RC) = 1591.5 Hz for 10k/10n.
	c := New()
	in := c.NodeByName("in")
	out := c.NodeByName("out")
	c.AddV("vin", in, Ground, func(float64) float64 { return 0 })
	c.AddR("r", in, out, 10e3)
	c.AddC("c", out, Ground, 10e-9, 0)
	fc := 1 / (2 * math.Pi * 10e3 * 10e-9)
	res, err := c.AC("vin", []float64{fc / 100, fc, fc * 100})
	if err != nil {
		t.Fatalf("ac: %v", err)
	}
	mag := res.Mag("out")
	if math.Abs(mag[0]-1) > 0.01 {
		t.Errorf("passband gain = %g, want ~1", mag[0])
	}
	if math.Abs(mag[1]-1/math.Sqrt2) > 0.01 {
		t.Errorf("corner gain = %g, want 0.707 (-3 dB)", mag[1])
	}
	if mag[2] > 0.02 {
		t.Errorf("stopband gain = %g, want ~0.01 (-40 dB at 100x)", mag[2])
	}
	// Phase at the corner is -45 degrees.
	if ph := res.PhaseDeg("out")[1]; math.Abs(ph+45) > 1 {
		t.Errorf("corner phase = %g deg, want -45", ph)
	}
}

func TestACInvertingAmpFlat(t *testing.T) {
	// The macromodel has no internal pole: the closed-loop gain is flat
	// at -Rf/Ri across the sweep.
	c := New()
	in := c.NodeByName("in")
	vg := c.NodeByName("vg")
	out := c.NodeByName("out")
	c.AddV("vin", in, Ground, func(float64) float64 { return 0 })
	c.AddR("ri", in, vg, 10e3)
	c.AddR("rf", out, vg, 30e3)
	c.AddOpAmp("oa", out, Ground, vg, 1e4, 4)
	res, err := c.AC("vin", LogSweep(10, 1e6, 11))
	if err != nil {
		t.Fatalf("ac: %v", err)
	}
	for i, m := range res.Mag("out") {
		if math.Abs(m-3) > 0.01 {
			t.Errorf("gain at %g Hz = %g, want 3", res.Freqs[i], m)
		}
	}
}

func TestACSaturatedStageHasNoGain(t *testing.T) {
	// An op amp biased into saturation by a large DC input contributes
	// (almost) zero incremental gain at the operating point.
	c := New()
	in := c.NodeByName("in")
	out := c.NodeByName("out")
	c.AddV("vbias", in, Ground, func(float64) float64 { return 3 })
	c.AddOpAmp("oa", out, in, Ground, 1e4, 1.5) // open loop, saturated
	res, err := c.AC("vbias", []float64{1e3})
	if err != nil {
		t.Fatalf("ac: %v", err)
	}
	if g := res.Mag("out")[0]; g > 1e-3 {
		t.Errorf("saturated incremental gain = %g, want ~0", g)
	}
}

func TestACUnknownSourceRejected(t *testing.T) {
	c := New()
	n := c.NodeByName("n")
	c.AddR("r", n, Ground, 1e3)
	if _, err := c.AC("ghost", []float64{1e3}); err == nil {
		t.Fatal("expected unknown-source error")
	}
}

func TestLogSweep(t *testing.T) {
	fs := LogSweep(10, 1000, 3)
	if len(fs) != 3 || math.Abs(fs[0]-10) > 1e-9 || math.Abs(fs[1]-100) > 1e-6 || math.Abs(fs[2]-1000) > 1e-6 {
		t.Errorf("sweep = %v", fs)
	}
}

func TestMagDB(t *testing.T) {
	c := New()
	in := c.NodeByName("in")
	out := c.NodeByName("out")
	c.AddV("vin", in, Ground, func(float64) float64 { return 0 })
	c.AddFunc("e", out, []Node{in}, func(v []float64) float64 { return 10 * v[0] })
	c.AddR("rl", out, Ground, 1e3)
	res, err := c.AC("vin", []float64{1e3})
	if err != nil {
		t.Fatalf("ac: %v", err)
	}
	if db := res.MagDB("out")[0]; math.Abs(db-20) > 0.01 {
		t.Errorf("gain = %g dB, want 20", db)
	}
}

// TestACPointZeroAllocsWarm pins the sweep's per-point cost: once a
// worker's scratch exists, solving a frequency point (loading the
// small-signal system, adding the capacitors' jωC and eliminating)
// allocates nothing.
func TestACPointZeroAllocsWarm(t *testing.T) {
	c := activeChain(7)
	op, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	g, caps := c.acAssemble(op, "vin")
	p := newACPoint(g.n)
	allocs := testing.AllocsPerRun(20, func() {
		if err := p.solve(g, caps, 1e3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm AC point: %v allocs, want 0", allocs)
	}
}

// TestACFailureReportsLowestPoint pins the failure rule of the sweep: a
// node tied to ground only by a 1 pF capacitor is singular at the sweep's
// two sub-millihertz points, and every tier, at every worker count,
// reports the earlier of them in sweep order.
func TestACFailureReportsLowestPoint(t *testing.T) {
	const want = "mna: AC at 1e-05 Hz: singular AC matrix at column 3"
	freqs := []float64{1e3, 1e4, 1e-5, 1e5, 1e-6, 1e6}
	build := func(mode SolverMode) *Circuit {
		c := New()
		in := c.NodeByName("in")
		out := c.NodeByName("out")
		float := c.NodeByName("float")
		c.AddV("vin", in, Ground, func(float64) float64 { return 0 })
		c.AddR("r", in, out, 1e3)
		c.AddR("rl", out, Ground, 1e3)
		c.AddC("cf", float, Ground, 1e-12, 0)
		c.Solver = mode
		return c
	}
	for _, tier := range []struct {
		name string
		mode SolverMode
	}{{"reference", SolverReference}, {"exact", SolverAuto}, {"fast", SolverFast}} {
		if _, err := build(tier.mode).AC("vin", freqs); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", tier.name, err, want)
		}
		for _, workers := range []int{1, 2, 8} {
			_, err := build(tier.mode).acSweep(context.Background(), "vin", freqs, workers)
			if err == nil || err.Error() != want {
				t.Errorf("%s at %d workers: error %v, want %q", tier.name, workers, err, want)
			}
		}
	}
}

// TestACRejectsBadFrequencies pins the sweep's input check: a frequency
// that is NaN, infinite or negative is an error on every tier, naming the
// first such frequency, before any operating point is computed.
func TestACRejectsBadFrequencies(t *testing.T) {
	for _, tc := range []struct {
		freqs []float64
		bad   string
	}{
		{[]float64{math.NaN(), -5, math.Inf(1)}, "NaN"},
		{[]float64{1e3, -5, math.Inf(1)}, "-5"},
		{[]float64{0, 1e3, math.Inf(1)}, "+Inf"},
		{[]float64{math.Inf(-1)}, "-Inf"},
	} {
		for _, tier := range []struct {
			name string
			mode SolverMode
		}{{"reference", SolverReference}, {"exact", SolverAuto}, {"fast", SolverFast}} {
			c := New()
			in := c.NodeByName("in")
			out := c.NodeByName("out")
			c.AddV("vin", in, Ground, func(float64) float64 { return 0 })
			c.AddR("r", in, out, 10e3)
			c.AddC("c", out, Ground, 10e-9, 0)
			c.Solver = tier.mode
			_, err := c.AC("vin", tc.freqs)
			want := "mna: AC frequency " + tc.bad + " Hz is not finite and non-negative"
			if err == nil || err.Error() != want {
				t.Errorf("%s, freqs %v: error %v, want %q", tier.name, tc.freqs, err, want)
			}
			if st := c.SolverStats(); st.NewtonIterations != 0 {
				t.Errorf("%s, freqs %v: %d Newton iterations before the check", tier.name, tc.freqs, st.NewtonIterations)
			}
		}
	}
}
