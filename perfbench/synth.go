package main

import (
	"fmt"
	"time"

	"vase/internal/absint"
	"vase/internal/compile"
	"vase/internal/corpus"
	"vase/internal/lint"
	"vase/internal/mapper"
	"vase/internal/parser"
	"vase/internal/sema"
	"vase/internal/vhif"
)

// synthDesign is the vasegen -check front contract for one design, called
// layer by layer under spans: parse, analyze, compile, lint (which runs its
// own front-end pass), then the architecture search.
func synthDesign(t *tracer, id int, d *design) (designObs, *vhif.Module, *sema.Design) {
	var obs designObs
	h := t.begin("parser", id)
	df, err := parser.Parse(d.File, d.Source)
	t.end(h)
	if err != nil {
		obs.Err = "parse: " + err.Error()
		return obs, nil, nil
	}
	h = t.begin("sema", id)
	sd, err := sema.AnalyzeOne(df)
	t.end(h)
	if err != nil {
		obs.Err = "sema: " + err.Error()
		return obs, nil, nil
	}
	h = t.begin("compile", id)
	m, err := compile.Compile(sd)
	t.end(h)
	if err != nil {
		obs.Err = "compile: " + err.Error()
		return obs, nil, nil
	}
	obs.Blocks = m.BlockCount()
	t.add("compile.modules", 1)
	t.add("compile.vhif_blocks", float64(obs.Blocks))

	h = t.begin("lint", id)
	findings, err := lint.CheckSource(d.File, d.Source, lint.Options{})
	t.end(h)
	if err != nil {
		obs.Err = "lint: " + err.Error()
		return obs, m, sd
	}
	js, err := findings.JSON()
	if err != nil {
		obs.Err = "lint findings: " + err.Error()
		return obs, m, sd
	}
	obs.Lint = hashString(string(js))

	h = t.begin("mapper", id)
	res, err := mapper.Synthesize(m, searchOptions(d))
	t.end(h)
	if err != nil {
		obs.Err = "synthesize: " + err.Error()
		return obs, m, sd
	}
	t.add("mapper.nodes", float64(res.Stats.NodesVisited))
	t.add("mapper.pruned", float64(res.Stats.Pruned))
	if res.Nonoptimal {
		t.add("mapper.capped", 1)
	}
	t.add("mapper.searches", 1)
	if _, err := res.Netlist.Topological(); err != nil {
		obs.Err = "netlist: " + err.Error()
		return obs, m, sd
	}
	obs.Netlist = hashString(res.Netlist.Dump())
	obs.OpAmps = res.Report.OpAmps
	obs.AreaUm2 = res.Report.AreaUm2
	obs.Nonoptimal = res.Nonoptimal
	return obs, m, sd
}

// designMismatch holds a synthesized architecture to its golden. Where the
// golden is a proven optimum (an exhaustive search that finished inside the
// node cap), the netlist must match it byte for byte. A capped or first-fit
// search returns whichever mapping its visiting order reached, so a mapper
// change that reorders or prunes the search may rightly return another one:
// there the architecture must still be valid (synthDesign and
// buildSimDesign record an invalid one as an error) and use no more op amps
// and no more area than the golden. Design quality beyond that is
// opamps_per_op's and area_um2_per_op's to guard.
func designMismatch(d *design, got, want designObs) string {
	if got.Err != want.Err {
		return fmt.Sprintf("error %q, golden %q", got.Err, want.Err)
	}
	if !want.Nonoptimal && !searchOptions(d).FirstFit {
		if got.Netlist != want.Netlist || got.Nonoptimal {
			return fmt.Sprintf("netlist %s (nonoptimal %v), golden %s", got.Netlist, got.Nonoptimal, want.Netlist)
		}
		return ""
	}
	if got.OpAmps > want.OpAmps || got.AreaUm2 > want.AreaUm2 {
		return fmt.Sprintf("%d op amps, %g um2; golden %d, %g", got.OpAmps, got.AreaUm2, want.OpAmps, want.AreaUm2)
	}
	return ""
}

// table1Mismatch checks an application's front-end and VHIF columns
// against the row hand-written from the paper (not against recorded
// output), the same columns the corpus tests hold exact.
func table1Mismatch(app *corpus.Application, sd *sema.Design, m *vhif.Module) string {
	e := app.Expected
	got := corpus.Row{
		ContinuousLines: sd.Stats.ContinuousLines,
		Quantities:      sd.Stats.QuantityCount,
		EventLines:      sd.Stats.EventLines,
		Signals:         sd.Stats.SignalCount,
		Blocks:          m.BlockCount(),
		States:          m.StateCount(),
		Datapath:        m.DatapathCount(),
	}
	e.Synthesis = ""
	if got != e {
		return fmt.Sprintf("Table 1 row %+v, paper %+v", got, e)
	}
	return ""
}

func synthWorkload(s scale, g *goldens) *workload {
	apps := appDesigns()
	designs := append(apps, ladder(s.synthSpecs)...)
	ops := make([]op, len(designs))
	for i, d := range designs {
		d := d
		ops[i] = op{kind: "synth", key: d.Key, run: func(t *tracer, id int) opOut {
			obs, m, sd := synthDesign(t, id, d)
			out := opOut{design: &obs}
			if m != nil && t.enabled() {
				// lint.CheckSource runs absint.Analyze on its own copy of
				// this module; spans cannot reach inside lint, so traced
				// passes time the same analysis again, outside the op.
				out.replay = func(t *tracer) {
					a0 := time.Now()
					absint.Analyze(m)
					t.add("absint.replay_ms", float64(time.Since(a0).Nanoseconds())/1e6)
				}
			}
			if d.App != nil && obs.Err == "" {
				out.mismatch = table1Mismatch(d.App, sd, m)
			}
			want, ok := g.Designs[d.Key]
			switch {
			case !ok:
				out.mismatch = "no golden"
			case out.mismatch != "":
			case obs.Lint != want.Lint || obs.Blocks != want.Blocks:
				out.mismatch = fmt.Sprintf("lint %s, %d VHIF blocks; golden %s, %d", obs.Lint, obs.Blocks, want.Lint, want.Blocks)
			default:
				out.mismatch = designMismatch(d, obs, want)
			}
			return out
		}}
	}
	return &workload{name: "synth", collectEachOp: true, setup: func(seed int64) (*pass, error) {
		// Warm-up: the Table 1 applications through the whole op.
		for _, o := range ops[:len(apps)] {
			o.run(nil, -1)
		}
		return &pass{ops: shuffled(ops, seed), teardown: func() {}}, nil
	}}
}
