package mna

import (
	"math"
	"strings"
	"testing"
)

func TestVoltageDividerDC(t *testing.T) {
	c := New()
	in := c.NodeByName("in")
	mid := c.NodeByName("mid")
	c.AddV("v1", in, Ground, func(float64) float64 { return 10 })
	c.AddR("r1", in, mid, 1e3)
	c.AddR("r2", mid, Ground, 1e3)
	sol, err := c.DC()
	if err != nil {
		t.Fatalf("dc: %v", err)
	}
	if got := sol.V(mid); math.Abs(got-5) > 1e-9 {
		t.Errorf("divider mid = %g, want 5", got)
	}
}

func TestRCTransient(t *testing.T) {
	// RC step response: tau = 1 ms; at t = 1 ms, v = 1 - 1/e.
	c := New()
	in := c.NodeByName("in")
	out := c.NodeByName("out")
	c.AddV("v1", in, Ground, func(float64) float64 { return 1 })
	c.AddR("r1", in, out, 1e3)
	c.AddC("c1", out, Ground, 1e-6, 0)
	tr, err := c.Transient(1e-3, 1e-6)
	if err != nil {
		t.Fatalf("tran: %v", err)
	}
	want := 1 - math.Exp(-1)
	got := tr.Node("out")[len(tr.Node("out"))-1]
	if math.Abs(got-want) > 5e-3 {
		t.Errorf("v(out) at tau = %g, want %g", got, want)
	}
}

func TestOpAmpInvertingAmplifier(t *testing.T) {
	// Gain -2 inverting amplifier from the macromodel.
	c := New()
	in := c.NodeByName("in")
	vg := c.NodeByName("vg")
	out := c.NodeByName("out")
	c.AddV("vin", in, Ground, func(float64) float64 { return 0.5 })
	c.AddR("ri", in, vg, 10e3)
	c.AddR("rf", out, vg, 20e3)
	c.AddOpAmp("oa", out, Ground, vg, 1e4, 4)
	sol, err := c.DC()
	if err != nil {
		t.Fatalf("dc: %v", err)
	}
	if got := sol.V(out); math.Abs(got+1.0) > 1e-3 {
		t.Errorf("inverting amp out = %g, want -1.0", got)
	}
}

func TestOpAmpSaturation(t *testing.T) {
	// Input overdrive saturates the stage at vmax.
	c := New()
	in := c.NodeByName("in")
	vg := c.NodeByName("vg")
	out := c.NodeByName("out")
	c.AddV("vin", in, Ground, func(float64) float64 { return 3 })
	c.AddR("ri", in, vg, 10e3)
	c.AddR("rf", out, vg, 20e3)
	c.AddOpAmp("oa", out, Ground, vg, 1e4, 4)
	sol, err := c.DC()
	if err != nil {
		t.Fatalf("dc: %v", err)
	}
	if got := sol.V(out); got > -3.8 || got < -4.05 {
		t.Errorf("saturated out = %g, want ~ -4", got)
	}
}

func TestFollowerTracksAndClips(t *testing.T) {
	c := New()
	in := c.NodeByName("in")
	out := c.NodeByName("out")
	c.AddV("vin", in, Ground, func(t float64) float64 { return 3 * math.Sin(2*math.Pi*1e3*t) })
	c.AddOpAmp("oa", out, in, out, 1e4, 1.5)
	c.AddR("rl", out, Ground, 270)
	tr, err := c.Transient(2e-3, 1e-6)
	if err != nil {
		t.Fatalf("tran: %v", err)
	}
	if max := tr.Max("out"); max < 1.40 || max > 1.55 {
		t.Errorf("clip level = %g, want ~1.5", max)
	}
	if min := tr.Min("out"); min > -1.40 || min < -1.55 {
		t.Errorf("negative clip = %g, want ~-1.5", min)
	}
	// Small-signal region tracks the input.
	vin := tr.Node("in")
	vout := tr.Node("out")
	for i := range vin {
		if math.Abs(vin[i]) < 0.5 && math.Abs(vout[i]-vin[i]) > 0.05 {
			t.Fatalf("follower error at sample %d: in=%g out=%g", i, vin[i], vout[i])
		}
	}
}

func TestSwitchRouting(t *testing.T) {
	c := New()
	in := c.NodeByName("in")
	out := c.NodeByName("out")
	ctl := c.NodeByName("ctl")
	c.AddV("vin", in, Ground, func(float64) float64 { return 2 })
	c.AddV("vctl", ctl, Ground, func(t float64) float64 {
		if t > 0.5e-3 {
			return 2.5
		}
		return -2.5
	})
	c.AddSwitch("sw", in, out, ctl, Ground, 100, 1e9, 0)
	c.AddR("rl", out, Ground, 1e4)
	tr, err := c.Transient(1e-3, 1e-5)
	if err != nil {
		t.Fatalf("tran: %v", err)
	}
	vout := tr.Node("out")
	if v := vout[10]; math.Abs(v) > 0.01 {
		t.Errorf("open switch leaks: %g", v)
	}
	if v := vout[len(vout)-1]; math.Abs(v-2*1e4/(1e4+100)) > 0.01 {
		t.Errorf("closed switch out = %g, want ~1.98", v)
	}
}

func TestBehavioralFunc(t *testing.T) {
	c := New()
	a := c.NodeByName("a")
	b := c.NodeByName("b")
	out := c.NodeByName("out")
	c.AddV("va", a, Ground, func(float64) float64 { return 2 })
	c.AddV("vb", b, Ground, func(float64) float64 { return 3 })
	c.AddFunc("mul", out, []Node{a, b}, func(v []float64) float64 { return v[0] * v[1] })
	c.AddR("rl", out, Ground, 1e4)
	sol, err := c.DC()
	if err != nil {
		t.Fatalf("dc: %v", err)
	}
	if got := sol.V(out); math.Abs(got-6) > 1e-6 {
		t.Errorf("func out = %g, want 6", got)
	}
}

func TestSingularMatrixDetected(t *testing.T) {
	c := New()
	c.AddR("r1", c.NodeByName("fa"), c.NodeByName("fb"), 1e3)
	// No DC path from either node to ground: singular.
	if _, err := c.DC(); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestTransientArgumentValidation(t *testing.T) {
	c := New()
	if _, err := c.Transient(0, 1e-6); err == nil {
		t.Error("zero tstop should fail")
	}
	if _, err := c.Transient(1e-3, 0); err == nil {
		t.Error("zero step should fail")
	}
	// 1e39 steps overflow int: once a makeslice panic in the preallocation.
	if _, err := c.Transient(1e30, 1e-9); err == nil || !strings.Contains(err.Error(), "step count") {
		t.Errorf("tstop/h = 1e39: err = %v, want a step-count error", err)
	}
}
