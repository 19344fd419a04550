package corpus

import (
	"math"
	"testing"

	"vase/internal/sim"
)

// appInputs returns exercise waveforms for each benchmark's input ports.
func appInputs(key string) map[string]sim.Source {
	switch key {
	case "receiver":
		return map[string]sim.Source{
			"line":  sim.Sine(0.4, 1e3, 0),
			"local": sim.Sine(0.15, 2.3e3, 0.7),
		}
	case "powermeter":
		return map[string]sim.Source{
			"vline": sim.Sine(1.0, 50, 0),
			"iline": sim.Sine(0.8, 50, -0.5),
		}
	case "missile":
		return map[string]sim.Source{
			"cmd":  sim.Step(0, 1, 0.01),
			"wind": sim.DC(0.05),
			"bias": sim.DC(0.2),
		}
	default:
		return map[string]sim.Source{}
	}
}

func appSimOptions(key string) sim.Options {
	switch key {
	case "missile":
		return sim.Options{TStop: 2, TStep: 5e-4}
	case "itersolver":
		return sim.Options{TStop: 10, TStep: 1e-3}
	case "powermeter":
		return sim.Options{TStop: 40e-3, TStep: 1e-5}
	default:
		return sim.Options{TStop: 3e-3, TStep: 1e-6}
	}
}

// TestBehavioralNetlistEquivalenceAllApps verifies for every benchmark that
// the synthesized netlist computes the same waveforms as the VHIF module it
// was mapped from: the architecture generator preserves behavior.
func TestBehavioralNetlistEquivalenceAllApps(t *testing.T) {
	for _, app := range Applications() {
		app := app
		t.Run(app.Key, func(t *testing.T) {
			b, err := buildDefault(app)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			inputs := appInputs(app.Key)
			opts := appSimOptions(app.Key)
			trM, err := sim.SimulateModule(b.Module, inputs, opts)
			if err != nil {
				t.Fatalf("module sim: %v", err)
			}
			trN, err := sim.SimulateNetlist(b.Result.Netlist, inputs, opts)
			if err != nil {
				t.Fatalf("netlist sim: %v", err)
			}
			for _, p := range b.Module.Ports {
				if p.Dir != 1 { // vhif.DirOut
					continue
				}
				m, n := trM.Get(p.Name), trN.Get(p.Name)
				if len(m) == 0 || len(n) == 0 {
					// Signal ports (controls) may be absent from one level.
					continue
				}
				worst, at := 0.0, 0
				scale := math.Max(1, trM.Max(p.Name)-trM.Min(p.Name))
				for i := range m {
					if d := math.Abs(m[i] - n[i]); d > worst {
						worst, at = d, i
					}
				}
				// Hysteresis-induced switching may differ by a step or two
				// around thresholds; allow a small relative divergence.
				if worst > 0.02*scale {
					t.Errorf("%s: module/netlist diverge by %g (%.1f%% of range) at t=%g",
						p.Name, worst, 100*worst/scale, trM.Time[at])
				}
			}
		})
	}
}

// TestIterSolverConverges: the integrator loop settles at the fixed point
// (x'dot = a0 - x - integ(x) settles where the integral term balances) and
// the convergence detector fires.
func TestIterSolverConverges(t *testing.T) {
	b, err := buildDefault(ByKey("itersolver"))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tr, err := sim.SimulateModule(b.Module, nil, sim.Options{TStop: 30, TStep: 1e-3})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	x := tr.Get("x")
	// Second-order loop with unity integral feedback: x(t) -> 0 while
	// integ(x) -> a0; the interesting claim is stability plus the latched
	// sample. Check that x stays bounded and settles.
	for i, v := range x {
		if math.Abs(v) > 3 {
			t.Fatalf("x diverged to %g at step %d", v, i)
		}
	}
	settled := math.Abs(x[len(x)-1] - x[len(x)-2])
	if settled > 1e-4 {
		t.Errorf("x not settled: last delta %g", settled)
	}
	// The convergence signal toggled at least once (x crosses 0.95).
	conv := tr.Get("conv")
	saw := false
	for _, v := range conv {
		if v > 0.5 {
			saw = true
		}
	}
	if !saw {
		t.Error("convergence detector never fired")
	}
}

// TestMissileSteadyState: with a unit command the drag chain balances the
// command: acc -> 0 and vel settles where k1*cmd = k2*vel + k3*cd*(vel-wind)^2.
func TestMissileSteadyState(t *testing.T) {
	b, err := buildDefault(ByKey("missile"))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	inputs := map[string]sim.Source{
		"cmd":  sim.DC(1.0),
		"wind": sim.DC(0.0),
		"bias": sim.DC(0.0),
	}
	tr, err := sim.SimulateModule(b.Module, inputs, sim.Options{TStop: 12, TStep: 1e-3})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	// Solve k1 = k2*v + k3*cd*v^2 for v: 4 = 0.8v + 0.15v^2.
	// v = (-0.8 + sqrt(0.64 + 4*0.15*4)) / (2*0.15)
	want := (-0.8 + math.Sqrt(0.64+2.4)) / 0.3
	if got := tr.Final("acc"); math.Abs(got) > 1e-3 {
		t.Errorf("steady acc = %g, want ~0", got)
	}
	// vel is internal; check via dist slope: dist(t) - dist(t-1s) ~ vel.
	d := tr.Get("dist")
	n := len(d) - 1
	perSec := int(1 / 1e-3)
	slope := d[n] - d[n-perSec]
	if math.Abs(slope-want) > 0.05*want {
		t.Errorf("terminal velocity = %g, want %g", slope, want)
	}
}
