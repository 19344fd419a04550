// Benchmarks regenerating the paper's evaluation artifacts: one benchmark
// per table/figure plus ablations of the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package vase_test

import (
	"context"
	"testing"

	"vase"
	"vase/internal/corpus"
	"vase/internal/mapper"
	"vase/internal/mna"
	"vase/internal/patterns"
	"vase/internal/sim"
)

// ---------------------------------------------------------------------------
// Table 1: full synthesis of each of the five applications.

func benchmarkApp(b *testing.B, key string) {
	app := corpus.ByKey(key)
	if app == nil {
		b.Fatalf("no application %q", key)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd, err := corpus.BuildApp(context.Background(), nil, app, mapper.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if bd.Result.Netlist.OpAmpCount() == 0 && key != "funcgen" {
			b.Fatal("empty netlist")
		}
	}
}

func BenchmarkTable1Receiver(b *testing.B)   { benchmarkApp(b, "receiver") }
func BenchmarkTable1PowerMeter(b *testing.B) { benchmarkApp(b, "powermeter") }
func BenchmarkTable1Missile(b *testing.B)    { benchmarkApp(b, "missile") }
func BenchmarkTable1IterSolver(b *testing.B) { benchmarkApp(b, "itersolver") }
func BenchmarkTable1FuncGen(b *testing.B)    { benchmarkApp(b, "funcgen") }

// BenchmarkTable1All regenerates the whole table.
func BenchmarkTable1All(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builds, err := corpus.BuildAll(context.Background(), nil, mapper.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		_ = corpus.Table1(builds)
	}
}

// ---------------------------------------------------------------------------
// Figures.

// BenchmarkFigure3 measures the VASS -> VHIF translation of the paper's
// Figure 3 example.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := corpus.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 measures the while-loop translation.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := corpus.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 measures the branch-and-bound decision-tree exploration.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, _, err := corpus.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if r.BestOpAmps != 1 {
			b.Fatalf("best = %d op amps", r.BestOpAmps)
		}
	}
}

// BenchmarkFigure7 measures receiver synthesis (signal flow -> circuit).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := corpus.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFigure8 measures the circuit-level receiver transient (3 ms at
// 1 us steps) through one MNA solver tier.
func benchFigure8(b *testing.B, mode mna.SolverMode) {
	bd, err := corpus.BuildApp(context.Background(), nil, corpus.ByKey("receiver"), mapper.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el, err := mna.Elaborate(bd.Result.Netlist, map[string]mna.Waveform{
			"line":  mna.Waveform(sim.Sine(1.5, 1e3, 0)),
			"local": mna.Waveform(sim.DC(0)),
		})
		if err != nil {
			b.Fatal(err)
		}
		el.Circuit.Solver = mode
		if _, err := el.Circuit.Transient(3e-3, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 runs the exact planned engine (the default tier).
func BenchmarkFigure8(b *testing.B) { benchFigure8(b, mna.SolverAuto) }

// BenchmarkFigure8Reference runs the original allocate-per-solve dense
// eliminator — the baseline both other tiers are measured against.
func BenchmarkFigure8Reference(b *testing.B) { benchFigure8(b, mna.SolverReference) }

// BenchmarkFigure8Fast runs the tolerance-tier engine (results within the
// default ErrorBudget of the reference, not byte-identical).
func BenchmarkFigure8Fast(b *testing.B) { benchFigure8(b, mna.SolverFast) }

// BenchmarkFigure8Behavioral measures the same experiment on the RK4
// behavioral simulator.
func BenchmarkFigure8Behavioral(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := corpus.Figure8Behavioral(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8Netlist measures the same window on the receiver's
// mapped netlist, through the netlist level of the behavioral simulator.
func BenchmarkFigure8Netlist(b *testing.B) {
	bd, err := corpus.BuildApp(context.Background(), nil, corpus.ByKey("receiver"), mapper.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]sim.Source{"line": sim.Sine(1.5, 1e3, 0), "local": sim.DC(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SimulateNetlist(bd.Result.Netlist, inputs, sim.Options{TStop: 3e-3, TStep: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md section 6).

// ablationSource is a deep gain cascade: every stage has a one-amp match
// and a two-amp bandwidth-split alternative, so the search tree is large
// enough (2^10 complete mappings unbounded) for the bounding and sequencing
// rules to matter.
const ablationSource = `
entity cascade is
  port (quantity a : in real; quantity y : out real);
end entity;
architecture chain of cascade is
  quantity q1, q2, q3, q4, q5, q6, q7, q8, q9 : real;
begin
  q1 == 3.0 * a;
  q2 == 4.0 * q1;
  q3 == 5.0 * q2;
  q4 == 6.0 * q3;
  q5 == 7.0 * q4;
  q6 == 8.0 * q5;
  q7 == 9.0 * q6;
  q8 == 10.0 * q7;
  q9 == 11.0 * q8;
  y == 12.0 * q9;
end architecture;`

func synthModule(b *testing.B, opts mapper.Options) mapper.Stats {
	d, err := vase.Compile(context.Background(), nil, vase.Source{Name: "cascade.vhd", Text: ablationSource})
	if err != nil {
		b.Fatal(err)
	}
	// The ablation metrics describe the paper's decision tree over the whole
	// cascade. Its stages are independent parts, so Trace keeps the search
	// on one part to measure it.
	opts.Trace = true
	res, err := mapper.Synthesize(d.VHIF, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res.Stats
}

// BenchmarkAblationSequencing compares the sequencing rule (largest pattern
// first) against reversed candidate order on the largest design.
func BenchmarkAblationSequencing(b *testing.B) {
	b.Run("with", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			nodes = synthModule(b, mapper.DefaultOptions()).NodesVisited
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
	b.Run("without", func(b *testing.B) {
		opts := mapper.DefaultOptions()
		opts.NoSequencing = true
		var nodes int
		for i := 0; i < b.N; i++ {
			nodes = synthModule(b, opts).NodesVisited
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
}

// BenchmarkAblationBounding compares pruning against full enumeration.
func BenchmarkAblationBounding(b *testing.B) {
	b.Run("with", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			nodes = synthModule(b, mapper.DefaultOptions()).NodesVisited
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
	b.Run("without", func(b *testing.B) {
		opts := mapper.DefaultOptions()
		opts.NoBounding = true
		var nodes int
		for i := 0; i < b.N; i++ {
			nodes = synthModule(b, opts).NodesVisited
		}
		b.ReportMetric(float64(nodes), "nodes")
	})
}

// BenchmarkAblationSharing compares op amp counts with and without
// cross-path hardware sharing on a design with common sub-expressions.
func BenchmarkAblationSharing(b *testing.B) {
	src := vase.Source{Name: "shared.vhd", Text: `
entity shared is
  port (quantity a, c : in real; quantity y1, y2 : out real);
end entity;
architecture arch of shared is
begin
  y1 == (5.0 * a) * c;
  y2 == (5.0 * a) * c + 1.0;
end architecture;`}
	d, err := vase.Compile(context.Background(), nil, src)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, noSharing bool) {
		opts := mapper.DefaultOptions()
		opts.NoSharing = noSharing
		var amps int
		for i := 0; i < b.N; i++ {
			res, err := mapper.Synthesize(d.VHIF, opts)
			if err != nil {
				b.Fatal(err)
			}
			amps = res.Netlist.OpAmpCount()
		}
		b.ReportMetric(float64(amps), "opamps")
	}
	b.Run("with", func(b *testing.B) { run(b, false) })
	b.Run("without", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationStrongBound compares the paper's bounding rule against
// the extended per-block lower bound (paper Section 7 future work).
func BenchmarkAblationStrongBound(b *testing.B) {
	run := func(b *testing.B, strong bool) {
		opts := mapper.DefaultOptions()
		opts.NoSharing = true // admissibility condition of the strong bound
		opts.StrongBound = strong
		var nodes int
		for i := 0; i < b.N; i++ {
			nodes = synthModule(b, opts).NodesVisited
		}
		b.ReportMetric(float64(nodes), "nodes")
	}
	b.Run("paper", func(b *testing.B) { run(b, false) })
	b.Run("strong", func(b *testing.B) { run(b, true) })
}

// BenchmarkHeuristicFirstFit compares exact branch-and-bound against the
// first-fit heuristic (paper Section 7: "a more time-effective exploration
// heuristic"), on one part (Trace) and on the cascade's independent parts.
func BenchmarkHeuristicFirstFit(b *testing.B) {
	run := func(b *testing.B, firstFit, onePart bool) {
		opts := mapper.DefaultOptions()
		opts.FirstFit = firstFit
		opts.Trace = onePart
		var nodes, amps int
		for i := 0; i < b.N; i++ {
			d, err := vase.Compile(context.Background(), nil, vase.Source{Name: "cascade.vhd", Text: ablationSource})
			if err != nil {
				b.Fatal(err)
			}
			res, err := mapper.Synthesize(d.VHIF, opts)
			if err != nil {
				b.Fatal(err)
			}
			nodes = res.Stats.NodesVisited
			amps = res.Netlist.OpAmpCount()
		}
		b.ReportMetric(float64(nodes), "nodes")
		b.ReportMetric(float64(amps), "opamps")
	}
	b.Run("exact/one-part", func(b *testing.B) { run(b, false, true) })
	b.Run("firstfit/one-part", func(b *testing.B) { run(b, true, true) })
	b.Run("exact/parts", func(b *testing.B) { run(b, false, false) })
	b.Run("firstfit/parts", func(b *testing.B) { run(b, true, false) })
}

// BenchmarkAblationDirect compares the two-step flow (technology-independent
// compilation, then pattern-absorbing mapping) against naive one-block-per-
// cell mapping — the paper's argument for separating the steps.
func BenchmarkAblationDirect(b *testing.B) {
	bd, err := corpus.BuildApp(context.Background(), nil, corpus.ByKey("receiver"), mapper.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, naive bool) {
		opts := mapper.DefaultOptions()
		if naive {
			opts.Patterns = patterns.Options{NoAbsorption: true}
		}
		var amps int
		var area float64
		for i := 0; i < b.N; i++ {
			res, err := mapper.Synthesize(bd.Module, opts)
			if err != nil {
				b.Fatal(err)
			}
			amps = res.Netlist.OpAmpCount()
			area = res.Report.AreaUm2
		}
		b.ReportMetric(float64(amps), "opamps")
		b.ReportMetric(area, "um2")
	}
	b.Run("twostep", func(b *testing.B) { run(b, false) })
	b.Run("naive", func(b *testing.B) { run(b, true) })
}

// ---------------------------------------------------------------------------
// Pass pipeline and artifact cache (DESIGN.md section 10).

// BenchmarkPipelineCold measures the uncached full flow (parse, analyze,
// compile, branch-and-bound search) on the receiver — a fresh pipeline per
// iteration, so every stage recomputes.
func BenchmarkPipelineCold(b *testing.B) {
	src := vase.Source{Name: "receiver.vhd", Text: corpus.ByKey("receiver").Source}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := vase.NewPipeline(vase.PipelineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		arch, err := vase.Synthesize(context.Background(), p, src, vase.DefaultSynthesisOptions())
		if err != nil {
			b.Fatal(err)
		}
		if arch.Cached {
			b.Fatal("cold synthesis hit the cache")
		}
	}
}

// BenchmarkPipelineCached measures the same flow through a pre-warmed
// pipeline: only key derivation and netlist rematerialization remain, so
// this should run at least an order of magnitude faster than
// BenchmarkPipelineCold.
func BenchmarkPipelineCached(b *testing.B) {
	p, err := vase.NewPipeline(vase.PipelineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	src := vase.Source{Name: "receiver.vhd", Text: corpus.ByKey("receiver").Source}
	if _, err := vase.Synthesize(context.Background(), p, src, vase.DefaultSynthesisOptions()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arch, err := vase.Synthesize(context.Background(), p, src, vase.DefaultSynthesisOptions())
		if err != nil {
			b.Fatal(err)
		}
		if !arch.Cached {
			b.Fatal("warm synthesis missed the cache")
		}
	}
}
