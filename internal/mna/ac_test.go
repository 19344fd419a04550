package mna

import (
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
	c.AddVCVS("e", out, Ground, in, Ground, 10)
	c.AddR("rl", out, Ground, 1e3)
	res, err := c.AC("vin", []float64{1e3})
	if err != nil {
		t.Fatalf("ac: %v", err)
	}
	if db := res.MagDB("out")[0]; math.Abs(db-20) > 0.01 {
		t.Errorf("gain = %g dB, want 20", db)
	}
}

// TestACDenseFallbackLazyAndReused pins the dense-fallback economics: a
// worker that never misses the sparse pattern must not carry dense storage
// at all, and a worker that misses repeatedly must allocate it exactly once
// and reuse it on every later miss.
func TestACDenseFallbackLazyAndReused(t *testing.T) {
	c := activeChain(7)
	op, err := c.DC()
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.ensureSolver()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := c.buildACTemplate(s, op, "vin")
	ws := newACWorkspace(s)
	if err := ws.solvePoint(s, tmpl, 1e3); err != nil {
		t.Fatal(err)
	}
	if ws.dvals != nil {
		t.Fatal("dense fallback storage allocated without a pattern miss")
	}
	// Drive the miss path directly (a real miss needs a pivot walk outside
	// the adaptively grown pattern, which well-formed circuits rarely do).
	if err := ws.denseFallback(s, tmpl, 1e3); err != nil {
		t.Fatal(err)
	}
	if len(ws.dvals) != len(tmpl.dvals) {
		t.Fatalf("dense storage sized %d, want %d", len(ws.dvals), len(tmpl.dvals))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ws.denseFallback(s, tmpl, 2e3); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("repeated dense fallback: %v allocs/op, want 0 (workspace must be reused)", allocs)
	}
}
