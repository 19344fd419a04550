package corpus

import (
	"math"
	"testing"

	"vase/internal/compile"
	"vase/internal/library"
	"vase/internal/mapper"
	"vase/internal/parser"
	"vase/internal/sema"
	"vase/internal/sim"
	"vase/internal/vhif"
)

func buildExtra(t *testing.T, key string) (*vhif.Module, *mapper.Result) {
	t.Helper()
	var app *ExtraApplication
	for _, a := range Extras() {
		if a.Key == key {
			app = a
		}
	}
	if app == nil {
		t.Fatalf("no extra design %q", key)
	}
	df, err := parser.Parse(key+".vhd", app.Source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := sema.AnalyzeOne(df)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	m, err := compile.Compile(d)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := mapper.Synthesize(m, mapper.DefaultOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	return m, res
}

func TestExtrasAllSynthesize(t *testing.T) {
	for _, app := range Extras() {
		app := app
		t.Run(app.Key, func(t *testing.T) {
			_, res := buildExtra(t, app.Key)
			if res.Netlist == nil || len(res.Netlist.Components) == 0 {
				t.Fatal("empty netlist")
			}
			if res.Report.AreaUm2 <= 0 {
				t.Error("no area estimate")
			}
		})
	}
}

func TestPIDStepResponse(t *testing.T) {
	m, res := buildExtra(t, "pid")
	// The architecture uses an integrator and a differentiator.
	if res.Netlist.CountKind(library.CellIntegrator) != 1 {
		t.Errorf("integrators = %d, want 1", res.Netlist.CountKind(library.CellIntegrator))
	}
	if res.Netlist.CountKind(library.CellDiff) != 1 {
		t.Errorf("differentiators = %d, want 1", res.Netlist.CountKind(library.CellDiff))
	}
	// Constant error e: u(t) = kp*e + ki*e*t (the integral ramps).
	tr, err := sim.SimulateModule(m, map[string]sim.Source{
		"sp": sim.DC(1.0),
		"pv": sim.DC(0.5),
	}, sim.Options{TStop: 0.1, TStep: 1e-5})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	// e = 0.5; at t=0.1: u = 2*0.5 + 8*0.5*0.1 = 1.4.
	if got := tr.Final("u"); math.Abs(got-1.4) > 0.01 {
		t.Errorf("u(0.1) = %g, want 1.4", got)
	}
}

func TestSVFDCGainAndDynamics(t *testing.T) {
	m, _ := buildExtra(t, "svf")
	// DC: lp settles to the input, bp and hp to zero.
	tr, err := sim.SimulateModule(m, map[string]sim.Source{
		"vin": sim.DC(0.8),
	}, sim.Options{TStop: 0.01, TStep: 1e-6})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if got := tr.Final("lp"); math.Abs(got-0.8) > 0.01 {
		t.Errorf("lp DC = %g, want 0.8", got)
	}
	if got := tr.Final("bp"); math.Abs(got) > 0.01 {
		t.Errorf("bp DC = %g, want 0", got)
	}
	if got := tr.Final("hp"); math.Abs(got) > 0.01 {
		t.Errorf("hp DC = %g, want 0", got)
	}
}

func TestSVFHighFrequencyRejection(t *testing.T) {
	m, _ := buildExtra(t, "svf")
	// Drive far above the corner (w = 6283 rad/s -> f0 = 1 kHz): the
	// low-pass output is strongly attenuated, the high-pass follows.
	tr, err := sim.SimulateModule(m, map[string]sim.Source{
		"vin": sim.Sine(1.0, 20e3, 0),
	}, sim.Options{TStop: 2e-3, TStep: 1e-7})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	lp := tr.Get("lp")
	// Look at the second half (past the transient).
	peak := 0.0
	for _, v := range lp[len(lp)/2:] {
		peak = math.Max(peak, math.Abs(v))
	}
	if peak > 0.05 {
		t.Errorf("lp peak at 20x corner = %g, want < 0.05 (40 dB/dec roll-off)", peak)
	}
}

func TestSVFAnnotationWidensBandwidth(t *testing.T) {
	// The "is frequency 0 to 50000" annotation must drive the estimator:
	// the derived system bandwidth exceeds the audio default.
	m, _ := buildExtra(t, "svf")
	found := false
	for _, p := range m.Ports {
		if p.Name == "vin" && p.FreqHi == 50000 {
			found = true
		}
	}
	if !found {
		t.Fatal("frequency annotation not carried to the VHIF port")
	}
}

func TestEnvelopeDetector(t *testing.T) {
	m, res := buildExtra(t, "envelope")
	if res.Netlist.CountKind(library.CellRectifier) != 1 {
		t.Errorf("rectifiers = %d, want 1", res.Netlist.CountKind(library.CellRectifier))
	}
	// A 10 kHz carrier of amplitude A: the averaged rectified value is
	// 2A/pi.
	tr, err := sim.SimulateModule(m, map[string]sim.Source{
		"vin": sim.Sine(1.0, 10e3, 0),
	}, sim.Options{TStop: 20e-3, TStep: 1e-6})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	want := 2 / math.Pi
	if got := tr.Final("env"); math.Abs(got-want) > 0.05 {
		t.Errorf("envelope = %g, want %g (2A/pi)", got, want)
	}
}

func TestRatioMeter(t *testing.T) {
	m, res := buildExtra(t, "ratiometer")
	if res.Netlist.CountKind(library.CellDivider) != 1 {
		t.Fatalf("dividers = %d, want 1", res.Netlist.CountKind(library.CellDivider))
	}
	tr, err := sim.SimulateModule(m, map[string]sim.Source{
		"num": sim.DC(1.2),
		"den": sim.DC(0.4),
	}, sim.Options{TStop: 1e-4, TStep: 1e-6})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if got := tr.Final("r"); math.Abs(got-3.0) > 1e-9 {
		t.Errorf("ratio = %g, want 3", got)
	}
}

func TestSqrtExtractor(t *testing.T) {
	m, res := buildExtra(t, "sqrt")
	if res.Netlist.CountKind(library.CellSqrt) != 1 {
		t.Fatalf("sqrt cells = %d, want 1", res.Netlist.CountKind(library.CellSqrt))
	}
	tr, err := sim.SimulateModule(m, map[string]sim.Source{
		"u": sim.DC(2.25),
	}, sim.Options{TStop: 1e-4, TStep: 1e-6})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if got := tr.Final("y"); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("sqrt(2.25) = %g, want 1.5", got)
	}
}

func TestWindowDetectorCaseUse(t *testing.T) {
	m, _ := buildExtra(t, "window")
	// Inside the window (vin above 0.5): unity path; below: attenuated.
	for _, c := range []struct{ vin, want float64 }{
		{0.8, 0.8},
		{0.2, 0.02},
	} {
		tr, err := sim.SimulateModule(m, map[string]sim.Source{
			"vin": sim.DC(c.vin),
		}, sim.Options{TStop: 1e-4, TStep: 1e-6})
		if err != nil {
			t.Fatalf("simulate: %v", err)
		}
		if got := tr.Final("vout"); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("vin=%g: vout = %g, want %g", c.vin, got, c.want)
		}
	}
}

// extraInputs drives each extra design over a 4 ms window.
var extraInputs = map[string]map[string]sim.Source{
	"pid":        {"sp": sim.Sine(0.5, 200, 0), "pv": sim.DC(0.1)},
	"svf":        {"vin": sim.Sine(0.5, 1e3, 0)},
	"envelope":   {"vin": sim.Sine(1.0, 10e3, 0)},
	"ratiometer": {"num": sim.Sine(0.5, 1e3, 0), "den": sim.DC(0.5)},
	"sqrt":       {"u": sim.DC(4.0)},
	"window":     {"vin": sim.Sine(1.0, 500, 0)},
}

func TestExtrasModuleNetlistEquivalence(t *testing.T) {
	for _, app := range Extras() {
		app := app
		t.Run(app.Key, func(t *testing.T) {
			m, res := buildExtra(t, app.Key)
			opts := sim.Options{TStop: 4e-3, TStep: 1e-6}
			trM, err := sim.SimulateModule(m, extraInputs[app.Key], opts)
			if err != nil {
				t.Fatalf("module sim: %v", err)
			}
			trN, err := sim.SimulateNetlist(res.Netlist, extraInputs[app.Key], opts)
			if err != nil {
				t.Fatalf("netlist sim: %v", err)
			}
			for _, p := range m.Ports {
				if p.Dir != vhif.DirOut || p.Kind != vhif.PortQuantity {
					continue
				}
				a, b := trM.Get(p.Name), trN.Get(p.Name)
				scale := math.Max(1, trM.Max(p.Name)-trM.Min(p.Name))
				for i := range a {
					if math.Abs(a[i]-b[i]) > 0.02*scale {
						t.Fatalf("%s diverges at t=%g: %g vs %g",
							p.Name, trM.Time[i], a[i], b[i])
					}
				}
			}
		})
	}
}
