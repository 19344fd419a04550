package sim

import (
	"math"
	"strings"
	"testing"

	"vase/internal/compile"
	"vase/internal/mapper"
	"vase/internal/parser"
	"vase/internal/sema"
	"vase/internal/vhif"
)

func compileSrc(t *testing.T, src string) *vhif.Module {
	t.Helper()
	df, err := parser.Parse("test.vhd", src)
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
	return m
}

func TestIntegratorOfConstantIsRamp(t *testing.T) {
	m := compileSrc(t, `
entity ramp is
  port (quantity u : in real; quantity y : out real);
end entity;
architecture a of ramp is
begin
  y'dot == u;
end architecture;`)
	tr, err := SimulateModule(m, map[string]Source{"u": DC(2.0)}, Options{TStop: 1, TStep: 1e-3})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	// y(1) = 2.0 * 1 s = 2.0.
	if got := tr.Final("y"); math.Abs(got-2.0) > 1e-6 {
		t.Errorf("y(1) = %g, want 2.0", got)
	}
}

func TestFirstOrderLag(t *testing.T) {
	// y' = u - y, u = 1: y(t) = 1 - exp(-t).
	m := compileSrc(t, `
entity lag is
  port (quantity u : in real; quantity y : out real);
end entity;
architecture a of lag is
begin
  y'dot == u - y;
end architecture;`)
	tr, err := SimulateModule(m, map[string]Source{"u": DC(1.0)}, Options{TStop: 2, TStep: 1e-3})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	want := 1 - math.Exp(-2)
	if got := tr.Final("y"); math.Abs(got-want) > 1e-5 {
		t.Errorf("y(2) = %g, want %g", got, want)
	}
}

func TestHarmonicOscillatorRK4(t *testing.T) {
	// x' = v, v' = -w^2 x is specified with w = 2*pi*f folded into gains;
	// start from rest and drive with nothing: need an initial condition, so
	// instead solve x' = v, v' = u - x with a step input: x -> 1 with
	// oscillation at 1 rad/s.
	m := compileSrc(t, `
entity osc is
  port (quantity u : in real; quantity x : out real);
end entity;
architecture a of osc is
  quantity v : real;
begin
  x'dot == v;
  v'dot == u - x;
end architecture;`)
	tr, err := SimulateModule(m, map[string]Source{"u": DC(1.0)}, Options{TStop: 2 * math.Pi, TStep: 1e-3})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	// Undamped: x(t) = 1 - cos(t); at t = 2*pi, x returns to 0.
	if got := tr.Final("x"); math.Abs(got) > 1e-4 {
		t.Errorf("x(2pi) = %g, want 0 (energy-conserving RK4)", got)
	}
	if peak := tr.Max("x"); math.Abs(peak-2.0) > 1e-3 {
		t.Errorf("peak = %g, want 2.0", peak)
	}
}

const receiverSrc = `
entity telephone is
  port (
    quantity line  : in real is voltage;
    quantity local : in real is voltage;
    quantity earph : out real is voltage limited at 1.5 drives 270.0 at 0.285 peak
  );
end entity;
architecture behavioral of telephone is
  constant Aline  : real := 4.0;
  constant Alocal : real := 2.0;
  constant r1c    : real := 0.5;
  constant r2c    : real := 0.25;
  constant Vth    : real := 0.1;
  quantity rvar : real;
  signal c1 : bit;
begin
  earph == (Aline * line + Alocal * local) * rvar;
  if (c1 = '1') use
    rvar == r1c;
  else
    rvar == r1c + r2c;
  end use;
  process (line'above(Vth)) is
  begin
    if (line'above(Vth) = true) then
      c1 <= '1';
    else
      c1 <= '0';
    end if;
  end process;
end architecture;`

func TestReceiverSmallSignalGain(t *testing.T) {
	m := compileSrc(t, receiverSrc)
	// A small DC input below the threshold: c1 = '0', rvar = 0.75,
	// earph = 4*line*0.75 = 3*line.
	tr, err := SimulateModule(m, map[string]Source{
		"line":  DC(0.05),
		"local": DC(0),
	}, Options{TStop: 0.01, TStep: 1e-5})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if got := tr.Final("earph"); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("earph = %g, want 0.15 (gain 3 path)", got)
	}
}

func TestReceiverGainSwitching(t *testing.T) {
	m := compileSrc(t, receiverSrc)
	// Above the threshold: c1 = '1', rvar = 0.5, earph = 4*line*0.5.
	tr, err := SimulateModule(m, map[string]Source{
		"line":  DC(0.2),
		"local": DC(0),
	}, Options{TStop: 0.01, TStep: 1e-5})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if got := tr.Final("earph"); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("earph = %g, want 0.4 (compensated gain path)", got)
	}
}

func TestReceiverClippingFigure8(t *testing.T) {
	// Figure 8: a deliberately high-amplitude input; the output stage clips
	// at 1.5 V.
	m := compileSrc(t, receiverSrc)
	tr, err := SimulateModule(m, map[string]Source{
		"line":  Sine(1.5, 1e3, 0),
		"local": DC(0),
	}, Options{TStop: 3e-3, TStep: 1e-6})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if max := tr.Max("earph"); math.Abs(max-1.5) > 1e-9 {
		t.Errorf("positive clip = %g, want 1.5", max)
	}
	if min := tr.Min("earph"); math.Abs(min+1.5) > 1e-9 {
		t.Errorf("negative clip = %g, want -1.5", min)
	}
}

func TestFunctionGeneratorRampOscillates(t *testing.T) {
	m := compileSrc(t, `
entity gen is
  port (quantity ramp : out real);
end entity;
architecture a of gen is
  constant k : real := 1000.0;
  constant amp : real := 1.0;
  quantity slope : real;
  signal up : bit;
begin
  ramp'dot == slope;
  if (up = '1') use
    slope == k;
  else
    slope == -k;
  end use;
  process (ramp'above(amp), ramp'above(-amp)) is
  begin
    up <= not up;
  end process;
end architecture;`)
	tr, err := SimulateModule(m, map[string]Source{}, Options{TStop: 0.02, TStep: 1e-6})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	// Triangle wave between roughly -1 and 1 (hysteresis bounds).
	if max := tr.Max("ramp"); max < 0.9 || max > 1.2 {
		t.Errorf("ramp max = %g, want ~1", max)
	}
	if min := tr.Min("ramp"); min > -0.9 || min < -1.2 {
		t.Errorf("ramp min = %g, want ~-1", min)
	}
	// It must actually oscillate: count direction changes.
	s := tr.Get("ramp")
	changes := 0
	for i := 2; i < len(s); i++ {
		d1 := s[i-1] - s[i-2]
		d2 := s[i] - s[i-1]
		if d1*d2 < 0 {
			changes++
		}
	}
	if changes < 5 {
		t.Errorf("direction changes = %d, want >= 5 (triangle oscillation)", changes)
	}
}

func TestModuleNetlistEquivalence(t *testing.T) {
	// The synthesized netlist must compute the same waveform as the VHIF
	// module (the mapping preserves behavior).
	m := compileSrc(t, receiverSrc)
	res, err := mapper.Synthesize(m, mapper.DefaultOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	in := map[string]Source{
		"line":  Sine(0.3, 1e3, 0),
		"local": Sine(0.1, 2e3, 1),
	}
	opts := Options{TStop: 3e-3, TStep: 1e-6}
	trM, err := SimulateModule(m, in, opts)
	if err != nil {
		t.Fatalf("module sim: %v", err)
	}
	trN, err := SimulateNetlist(res.Netlist, in, opts)
	if err != nil {
		t.Fatalf("netlist sim: %v", err)
	}
	a, b := trM.Get("earph"), trN.Get("earph")
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-6 {
		t.Errorf("module/netlist divergence = %g, want < 1e-6", worst)
	}
}

func TestFSMRunnerMatchesComparator(t *testing.T) {
	// The FSM interpreter and the extracted comparator must agree on the
	// control signal (away from the hysteresis band).
	m := compileSrc(t, receiverSrc)
	if len(m.FSMs) != 1 {
		t.Fatalf("fsms = %d", len(m.FSMs))
	}
	runner := NewFSMRunner(m.FSMs[0])
	tr, err := SimulateModule(m, map[string]Source{
		"line":  Sine(0.5, 1e3, 0),
		"local": DC(0),
	}, Options{TStop: 2e-3, TStep: 1e-6})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	line := Sine(0.5, 1e3, 0)
	c1 := tr.Get("c1")
	mismatches := 0
	for i, tm := range tr.Time {
		if err := runner.Step(map[string]float64{"line": line(tm)}); err != nil {
			t.Fatalf("fsm step: %v", err)
		}
		// Skip samples inside the hysteresis band of the analog detector.
		if math.Abs(line(tm)-0.1) < 0.05 {
			continue
		}
		if (runner.Signal("c1") > 0.5) != (c1[i] > 0.5) {
			mismatches++
		}
	}
	if mismatches > len(tr.Time)/100 {
		t.Errorf("FSM and comparator disagree on %d of %d samples", mismatches, len(tr.Time))
	}
}

func TestSampleHoldTracksAndHolds(t *testing.T) {
	m := compileSrc(t, `
entity sh is
  port (quantity vin : in real; quantity vout : out real);
end entity;
architecture a of sh is
  quantity held : real;
  signal strobe : bit;
begin
  if (strobe = '1') use
    held == vin;
  end use;
  vout == held;
  process (vin'above(0.0)) is
  begin
    if (vin'above(0.0) = true) then
      strobe <= '1';
    else
      strobe <= '0';
    end if;
  end process;
end architecture;`)
	// Sine input: the S/H tracks while positive and holds (near zero, the
	// falling-edge value) while negative.
	tr, err := SimulateModule(m, map[string]Source{"vin": Sine(1, 100, 0)}, Options{TStop: 0.02, TStep: 1e-5})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	vout := tr.Get("vout")
	vin := Sine(1, 100, 0)
	for i, tm := range tr.Time {
		if vin(tm) > 0.1 && math.Abs(vout[i]-vin(tm)) > 0.05 {
			t.Fatalf("S/H should track at t=%g: vout=%g vin=%g", tm, vout[i], vin(tm))
		}
		if vin(tm) < -0.5 && math.Abs(vout[i]) > 0.15 {
			t.Fatalf("S/H should hold near the falling-edge value at t=%g: vout=%g", tm, vout[i])
		}
	}
}

func TestADCQuantization(t *testing.T) {
	m := compileSrc(t, `
entity conv is
  port (quantity vin : in real; quantity dout : out real);
end entity;
architecture a of conv is
begin
  dout == adc(vin, 4.0);
end architecture;`)
	tr, err := SimulateModule(m, map[string]Source{"vin": DC(1.03)}, Options{TStop: 1e-3, TStep: 1e-4})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	// 4 bits over +-2.5 V: q = 2.5/8 = 0.3125; 1.03 -> 0.9375.
	if got := tr.Final("dout"); math.Abs(got-0.9375) > 1e-9 {
		t.Errorf("dout = %g, want 0.9375", got)
	}
}

func TestDivergenceDetected(t *testing.T) {
	m := compileSrc(t, `
entity boom is
  port (quantity y : out real);
end entity;
architecture a of boom is
begin
  y'dot == 1.0e9 * y + 1.0e9;
end architecture;`)
	_, err := SimulateModule(m, map[string]Source{}, Options{TStop: 1, TStep: 1e-3})
	if err == nil {
		t.Fatal("expected divergence error")
	}
}

func TestMissingSourceRejected(t *testing.T) {
	m := compileSrc(t, `
entity e is
  port (quantity u : in real; quantity y : out real);
end entity;
architecture a of e is
begin
  y == 2.0 * u;
end architecture;`)
	if _, err := SimulateModule(m, map[string]Source{}, Options{TStop: 1, TStep: 0.1}); err == nil {
		t.Fatal("expected missing-source error")
	}
}

func TestSources(t *testing.T) {
	if DC(3)(42) != 3 {
		t.Error("DC source")
	}
	if Step(0, 1, 5)(4) != 0 || Step(0, 1, 5)(6) != 1 {
		t.Error("Step source")
	}
	if Ramp(2)(3) != 6 {
		t.Error("Ramp source")
	}
	if math.Abs(Sine(2, 1, 0)(0.25)-2) > 1e-12 {
		t.Error("Sine source peak")
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := &Trace{
		Time:    []float64{0, 1, 2},
		Signals: map[string][]float64{"x": {1, -3, 2}},
	}
	if tr.Max("x") != 2 || tr.Min("x") != -3 || tr.Final("x") != 2 {
		t.Error("trace helpers wrong")
	}
	if !math.IsNaN(tr.Final("missing")) {
		t.Error("missing signal should be NaN")
	}
}

func TestMathBlocks(t *testing.T) {
	// min, max, sign, sin, cos, sqrt, div through the whole pipeline.
	m := compileSrc(t, `
entity mathy is
  port (
    quantity a : in real;
    quantity b : in real;
    quantity y1, y2, y3, y4, y5, y6 : out real
  );
end entity;
architecture arch of mathy is
begin
  y1 == min(a, b);
  y2 == max(a, b);
  y3 == sign(a - b);
  y4 == sin(a);
  y5 == cos(a);
  y6 == a / b;
end architecture;`)
	tr, err := SimulateModule(m, map[string]Source{
		"a": DC(0.4),
		"b": DC(0.9),
	}, Options{TStop: 1e-4, TStep: 1e-5})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	checks := map[string]float64{
		"y1": 0.4,
		"y2": 0.9,
		"y3": -1,
		"y4": math.Sin(0.4),
		"y5": math.Cos(0.4),
		"y6": 0.4 / 0.9,
	}
	for name, want := range checks {
		if got := tr.Final(name); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestDividerGuardsNearZero(t *testing.T) {
	m := compileSrc(t, `
entity d is
  port (quantity a, b : in real; quantity y : out real);
end entity;
architecture arch of d is
begin
  y == a / b;
end architecture;`)
	tr, err := SimulateModule(m, map[string]Source{
		"a": DC(1),
		"b": DC(0),
	}, Options{TStop: 1e-5, TStep: 1e-6})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if v := tr.Final("y"); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("division by zero leaked: %g", v)
	}
}

func TestDifferentiatorOfRamp(t *testing.T) {
	m := compileSrc(t, `
entity d is
  port (quantity u : in real; quantity y : out real);
end entity;
architecture arch of d is
begin
  y == u'dot;
end architecture;`)
	tr, err := SimulateModule(m, map[string]Source{"u": Ramp(5)},
		Options{TStop: 1e-3, TStep: 1e-6})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	// After the first step the backward difference settles at the slope.
	if got := tr.Final("y"); math.Abs(got-5) > 1e-6 {
		t.Errorf("d/dt(5t) = %g, want 5", got)
	}
}

func TestProbesRecordInternalNets(t *testing.T) {
	m := compileSrc(t, receiverSrc)
	tr, err := SimulateModule(m, map[string]Source{
		"line":  DC(0.05),
		"local": DC(0),
	}, Options{TStop: 1e-4, TStep: 1e-5, Probes: []string{"rvar"}})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if got := tr.Final("rvar"); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("probed rvar = %g, want 0.75", got)
	}
}

func TestWriteCSV(t *testing.T) {
	tr := &Trace{
		Time:    []float64{0, 1e-6},
		Signals: map[string][]float64{"b": {1, 2}, "a": {3, 4}},
	}
	var buf strings.Builder
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "t,a,b\n0,3,1\n1e-06,4,2\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
}

func TestModelBandwidth(t *testing.T) {
	// A gain-5 amplifier sized for the audio system spec: within the
	// specified band the finite-GBW simulation matches the ideal response,
	// far above it the amplifier visibly rolls off — the estimator's
	// bandwidth guard is what keeps the in-band error small.
	m := compileSrc(t, `
entity amp is
  port (quantity a : in real; quantity y : out real);
end entity;
architecture arch of amp is
begin
  y == 5.0 * a;
end architecture;`)
	res, err := mapper.Synthesize(m, mapper.DefaultOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	peakAt := func(f float64, bw bool) float64 {
		tr, err := SimulateNetlist(res.Netlist, map[string]Source{"a": Sine(0.1, f, 0)},
			Options{TStop: 10 / f, TStep: math.Min(1e-7, 0.001/f), ModelBandwidth: bw})
		if err != nil {
			t.Fatalf("simulate at %g: %v", f, err)
		}
		out := tr.Get("y")
		peak := 0.0
		for _, v := range out[len(out)/2:] {
			peak = math.Max(peak, math.Abs(v))
		}
		return peak
	}
	// In-band (10 kHz, inside the 20 kHz audio spec): within 1% of ideal.
	inBand := peakAt(10e3, true)
	if math.Abs(inBand-0.5) > 0.005 {
		t.Errorf("in-band peak = %g, want ~0.5 (estimator margin suffices)", inBand)
	}
	// Far out of band (30x the specified bandwidth): visible roll-off.
	outBand := peakAt(600e3, true)
	ideal := peakAt(600e3, false)
	if math.Abs(ideal-0.5) > 1e-9 {
		t.Errorf("ideal simulation should not roll off: %g", ideal)
	}
	if outBand > 0.45 {
		t.Errorf("600 kHz peak = %g, want visible finite-GBW roll-off", outBand)
	}
}

// TestRK4StepZeroAllocs pins the lowered engine's step loop: after
// warm-up, one RK4 step (the evaluation at t, the four derivative passes,
// the end-of-step evaluation and the discrete updates) allocates nothing
// at either level.
func TestRK4StepZeroAllocs(t *testing.T) {
	m := compileSrc(t, receiverSrc)
	res, err := mapper.Synthesize(m, mapper.DefaultOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	in := map[string]Source{"line": Sine(1.5, 1e3, 0), "local": DC(0)}
	opts := Options{TStop: 3e-3, TStep: 1e-6}
	mod, err := lowerModule(m, in, opts)
	if err != nil {
		t.Fatalf("lower module: %v", err)
	}
	nl, err := lowerNetlist(res.Netlist, in, opts)
	if err != nil {
		t.Fatalf("lower netlist: %v", err)
	}
	for _, level := range []struct {
		name string
		p    *program
	}{{"vhif", mod}, {"netlist", nl}} {
		p := level.p
		p.start()
		step := 0
		allocs := testing.AllocsPerRun(100, func() {
			tm := float64(step) * opts.TStep
			p.eval(tm, p.x)
			if err := p.step(tm); err != nil {
				t.Fatalf("%s: step %d: %v", level.name, step, err)
			}
			step++
		})
		if allocs != 0 {
			t.Errorf("%s: one RK4 step allocates %v times, want 0", level.name, allocs)
		}
	}
}
