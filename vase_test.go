package vase_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"vase"
)

// ctx is the context of the facade calls that need no deadline.
var ctx = context.Background()

const mixerSrc = `
entity mixer is
  port (
    quantity a : in real is voltage;
    quantity b : in real is voltage;
    quantity y : out real is voltage
  );
end entity;
architecture beh of mixer is
begin
  y == 3.0 * a + 2.0 * b;
end architecture;
`

func TestCompileAPI(t *testing.T) {
	d, err := vase.Compile(ctx, nil, vase.Source{Name: "mixer.vhd", Text: mixerSrc})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if d.Name != "mixer" {
		t.Errorf("name = %q", d.Name)
	}
	m := d.Metrics()
	if m.Blocks != 3 {
		t.Errorf("blocks = %d, want 3 (gain, gain, add)", m.Blocks)
	}
	if m.Quantities != 3 {
		t.Errorf("quantities = %d, want 3", m.Quantities)
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	_, err := vase.Compile(ctx, nil, vase.Source{Name: "bad.vhd", Text: "entity e is garbage"})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestSynthesizeAPI(t *testing.T) {
	d, err := vase.Compile(ctx, nil, vase.Source{Name: "mixer.vhd", Text: mixerSrc})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	arch, err := d.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	if arch.Netlist.OpAmpCount() != 1 {
		t.Errorf("op amps = %d, want 1 (one summing amplifier)", arch.Netlist.OpAmpCount())
	}
	if arch.Report.AreaUm2 <= 0 {
		t.Error("area must be positive")
	}
	if !strings.Contains(arch.Netlist.Summary(), "amplif.") {
		t.Errorf("summary = %q", arch.Netlist.Summary())
	}
}

func TestSimulateAPI(t *testing.T) {
	d, err := vase.Compile(ctx, nil, vase.Source{Name: "mixer.vhd", Text: mixerSrc})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr, err := d.Simulate(ctx, map[string]vase.Waveform{
		"a": vase.DC(0.1),
		"b": vase.DC(0.2),
	}, vase.SimOptions{TStop: 1e-4, TStep: 1e-6})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if got := tr.Final("y"); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("y = %g, want 0.7", got)
	}
}

func TestArchitectureSimulateMatchesDesign(t *testing.T) {
	d, err := vase.Compile(ctx, nil, vase.Source{Name: "mixer.vhd", Text: mixerSrc})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	arch, err := d.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	in := map[string]vase.Waveform{"a": vase.Sine(0.1, 1e3, 0), "b": vase.DC(0.05)}
	opts := vase.SimOptions{TStop: 2e-3, TStep: 1e-6}
	trD, err := d.Simulate(ctx, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	trA, err := arch.Simulate(ctx, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	yd, ya := trD.Get("y"), trA.Get("y")
	for i := range yd {
		if math.Abs(yd[i]-ya[i]) > 1e-9 {
			t.Fatalf("divergence at sample %d: %g vs %g", i, yd[i], ya[i])
		}
	}
}

func TestSpiceAPI(t *testing.T) {
	d, err := vase.Compile(ctx, nil, vase.Source{Name: "mixer.vhd", Text: mixerSrc})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	arch, err := d.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	res, err := arch.Spice(ctx, map[string]vase.Waveform{
		"a": vase.DC(0.1),
		"b": vase.DC(0.2),
	}, 1e-4, 1e-6)
	if err != nil {
		t.Fatalf("spice: %v", err)
	}
	y := res.V("y")
	if len(y) == 0 {
		t.Fatal("no waveform")
	}
	if got := y[len(y)-1]; math.Abs(got-0.7) > 0.01 {
		t.Errorf("circuit-level y = %g, want ~0.7", got)
	}
}

func TestSpiceDeckAPI(t *testing.T) {
	d, err := vase.Compile(ctx, nil, vase.Source{Name: "mixer.vhd", Text: mixerSrc})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	arch, err := d.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	deck, err := arch.SpiceDeck()
	if err != nil {
		t.Fatalf("deck: %v", err)
	}
	for _, want := range []string{".subckt opamp", ".end", "R1"} {
		if !strings.Contains(deck, want) {
			t.Errorf("deck missing %q:\n%s", want, deck)
		}
	}
}

func TestCompileAlternativesAPI(t *testing.T) {
	mods, err := vase.CompileAlternatives(ctx, nil, vase.Source{Name: "mixer.vhd", Text: mixerSrc}, 0)
	if err != nil {
		t.Fatalf("alternatives: %v", err)
	}
	if len(mods) < 1 {
		t.Fatal("no topologies")
	}
}

func TestBenchmarksAPI(t *testing.T) {
	if len(vase.Benchmarks()) != 5 {
		t.Errorf("benchmarks = %d, want 5", len(vase.Benchmarks()))
	}
	if _, err := vase.Benchmark("receiver"); err != nil {
		t.Error(err)
	}
	if _, err := vase.Benchmark("nosuch"); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestTraceTreeAPI(t *testing.T) {
	d, err := vase.Compile(ctx, nil, vase.Source{Name: "mixer.vhd", Text: mixerSrc})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opts := vase.DefaultSynthesisOptions()
	opts.Trace = true
	arch, err := d.Synthesize(ctx, opts)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	text := vase.FormatDecisionTree(arch.Tree)
	if !strings.Contains(text, "complete mapping") {
		t.Errorf("tree text:\n%s", text)
	}
}

func TestACAPI(t *testing.T) {
	// An inferred low-pass at 1 kHz must show its corner in the circuit-level
	// frequency response.
	src := `
entity smooth is
  port (
    quantity vin  : in real is voltage;
    quantity vout : out real is voltage is frequency 0 to 1000.0
  );
end entity;
architecture a of smooth is
begin
  vout == vin;
end architecture;`
	d, err := vase.Compile(ctx, nil, vase.Source{Name: "smooth.vhd", Text: src})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	arch, err := d.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	res, err := arch.AC(ctx, "vin", 10, 100e3, 5) // 10 Hz .. 100 kHz
	if err != nil {
		t.Fatalf("ac: %v", err)
	}
	mag := res.Mag("vout")
	if len(mag) != 5 {
		t.Fatalf("sweep points = %d", len(mag))
	}
	if mag[0] < 0.95 {
		t.Errorf("passband gain = %g, want ~1", mag[0])
	}
	if mag[len(mag)-1] > 0.1 {
		t.Errorf("stopband gain = %g, want attenuated (100x above corner)", mag[len(mag)-1])
	}
	if _, err := arch.AC(ctx, "ghost", 10, 100, 3); err == nil {
		t.Error("expected error for unknown stimulus port")
	}
}

func TestSizingAPI(t *testing.T) {
	d, err := vase.Compile(ctx, nil, vase.Source{Name: "mixer.vhd", Text: mixerSrc})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	arch, err := d.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	sized, err := arch.Sizing()
	if err != nil {
		t.Fatalf("sizing: %v", err)
	}
	if len(sized) != arch.Netlist.OpAmpCount() {
		t.Errorf("sized %d, want %d", len(sized), arch.Netlist.OpAmpCount())
	}
	if text := vase.FormatSizing(sized); !strings.Contains(text, "transistor sizing") {
		t.Errorf("format = %q", text)
	}
}

func TestRenderDiagnostics(t *testing.T) {
	src := vase.Source{Name: "bad.vhd", Text: `
entity e is
  port (quantity a : in real; quantity y : out real);
end entity;
architecture arch of e is
begin
  y == nosuch * a;
end architecture;`}
	_, err := vase.Compile(ctx, nil, src)
	if err == nil {
		t.Fatal("expected error")
	}
	text := vase.RenderDiagnostics(err, src)
	if !strings.Contains(text, "undeclared") {
		t.Errorf("rendered = %q", text)
	}
	if !strings.Contains(text, "nosuch * a") || !strings.Contains(text, "^") {
		t.Errorf("missing source excerpt with caret:\n%s", text)
	}
	if vase.RenderDiagnostics(nil, src) != "" {
		t.Error("nil error should render empty")
	}
}

// TestSpiceViaAPI pins the cached circuit-simulation entry point: a warm
// call serves the trace from the pipeline without running the solver, and
// the rehydrated result is sample-for-sample identical to a direct run —
// in both solver tiers (the fast tier's determinism is what makes its
// results cacheable at all).
func TestSpiceViaAPI(t *testing.T) {
	d, err := vase.Compile(ctx, nil, vase.Source{Name: "mixer.vhd", Text: mixerSrc})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	arch, err := d.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	arch.SimSolver = vase.SolverFast
	inputs := map[string]string{"a": "dc:0.1", "b": "dc:0.2"}
	waves := map[string]vase.Waveform{"a": vase.DC(0.1), "b": vase.DC(0.2)}
	direct, err := arch.Spice(ctx, waves, 1e-4, 1e-6)
	if err != nil {
		t.Fatalf("direct spice: %v", err)
	}
	p, err := vase.NewPipeline(vase.PipelineOptions{})
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	cold, err := arch.SpiceVia(ctx, p, inputs, 1e-4, 1e-6)
	if err != nil {
		t.Fatalf("cold SpiceVia: %v", err)
	}
	warm, err := arch.SpiceVia(ctx, p, inputs, 1e-4, 1e-6)
	if err != nil {
		t.Fatalf("warm SpiceVia: %v", err)
	}
	for _, res := range []*vase.SpiceResult{cold, warm} {
		dy, ry := direct.V("y"), res.V("y")
		if len(dy) != len(ry) {
			t.Fatalf("trace length %d, direct run %d", len(ry), len(dy))
		}
		for i := range dy {
			if math.Float64bits(dy[i]) != math.Float64bits(ry[i]) {
				t.Fatalf("sample %d: %x, direct run %x", i,
					math.Float64bits(ry[i]), math.Float64bits(dy[i]))
			}
		}
	}
}

// requests totals every stage's cache traffic: hits of all kinds, misses
// and errors.
func requests(s vase.PipelineStats) uint64 {
	var n uint64
	for _, st := range s.Stages {
		n += st.Cached() + st.Misses + st.Errors
	}
	return n
}

// TestNilPipelineIsDefault pins the facade's one call form: a nil
// *Pipeline routes Compile and Lint through DefaultPipeline(), and an
// explicit pipeline leaves the default's counters untouched.
func TestNilPipelineIsDefault(t *testing.T) {
	src := vase.Source{Name: "mixer.vhd", Text: mixerSrc}
	explicit, err := vase.NewPipeline(vase.PipelineOptions{})
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	before := requests(vase.DefaultPipeline().Stats())
	if _, err := vase.Compile(ctx, explicit, src); err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := vase.Lint(ctx, explicit, src, vase.LintOptions{}); err != nil {
		t.Fatalf("lint: %v", err)
	}
	if n := requests(vase.DefaultPipeline().Stats()); n != before {
		t.Errorf("explicit pipeline moved the default pipeline: %d requests, then %d", before, n)
	}
	if requests(explicit.Stats()) == 0 {
		t.Error("explicit pipeline recorded no requests")
	}
	if _, err := vase.Compile(ctx, nil, src); err != nil {
		t.Fatalf("compile: %v", err)
	}
	compiled := requests(vase.DefaultPipeline().Stats())
	if compiled == before {
		t.Error("Compile with a nil pipeline did not go through DefaultPipeline()")
	}
	if _, err := vase.Lint(ctx, nil, src, vase.LintOptions{}); err != nil {
		t.Fatalf("lint: %v", err)
	}
	if requests(vase.DefaultPipeline().Stats()) == compiled {
		t.Error("Lint with a nil pipeline did not go through DefaultPipeline()")
	}
}
