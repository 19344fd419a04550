package main

import (
	"fmt"
	"math"

	"vase/internal/assertlang"
	"vase/internal/compile"
	"vase/internal/gen"
	"vase/internal/mapper"
	"vase/internal/mna"
	"vase/internal/netlist"
	"vase/internal/parser"
	"vase/internal/sema"
	"vase/internal/sim"
	"vase/internal/vhif"
)

// simDesign is a synthesized design with the stimuli and windows its
// engines run over.
type simDesign struct {
	d       *design
	m       *vhif.Module
	nl      *netlist.Netlist // the pinned architecture (circuit designs only)
	arch    string           // nl in netlist.Encode form
	obs     designObs        // what set-up synthesis returned
	asserts []*assertlang.Assertion
	inputs  map[string]sim.Source
	// Behavioral horizon, and the circuit window (the campaign observer's
	// 100 TStep at TStep/5; Figure 8's own 3 ms at 1 us for the receiver).
	tstop, tstep float64
	cstop, cstep float64
	circuit      bool
	// mismatch fails every op of a design whose set-up synthesis fails its
	// synth golden.
	mismatch string
}

// figure8Inputs is the Figure 8 stimulus: line = 1.5 V at 1 kHz, local
// grounded.
func figure8Inputs() map[string]sim.Source {
	return map[string]sim.Source{"line": sim.Sine(1.5, 1e3, 0), "local": sim.DC(0)}
}

// compileDesign runs the front end on a design outside any op.
func compileDesign(d *design) (*vhif.Module, error) {
	df, err := parser.Parse(d.File, d.Source)
	if err != nil {
		return nil, err
	}
	sd, err := sema.AnalyzeOne(df)
	if err != nil {
		return nil, err
	}
	return compile.Compile(sd)
}

// buildSimDesign compiles and synthesizes one design under the benchmark's
// search policy, as simulate's set-up does, and decodes the architecture
// its circuit ops run on. That architecture is pinned in the goldens
// (netlist.Encode text) instead of taken from this synthesis: the medium
// specs use first-fit, whose result a mapper change may rightly alter (see
// designMismatch), and the timed phase must keep simulating the circuits
// the reference traces describe. An empty arch pins this synthesis's own
// netlist, as regeneration does.
func buildSimDesign(d *design, arch string) (*simDesign, error) {
	m, err := compileDesign(d)
	if err != nil {
		return nil, err
	}
	res, err := mapper.Synthesize(m, searchOptions(d))
	if err != nil {
		return nil, err
	}
	s := &simDesign{d: d, m: m, circuit: true}
	s.obs = designObs{Netlist: hashString(res.Netlist.Dump()), OpAmps: res.Report.OpAmps,
		AreaUm2: res.Report.AreaUm2, Nonoptimal: res.Nonoptimal}
	if _, err := res.Netlist.Topological(); err != nil {
		s.obs.Err = "netlist: " + err.Error()
	}
	if sp := d.Spec; sp != nil {
		s.asserts, s.inputs = sp.Asserts, sp.Sources()
		s.tstop, s.tstep = sp.TStop, sp.TStep
		s.cstop, s.cstep = 100*sp.TStep, sp.TStep/5
		// Large-grade circuits (dimension 688-916) run behavioral only: one
		// exact transient on them outlasts a whole run.
		s.circuit = sp.Size != gen.SizeLarge
	} else {
		if s.asserts, err = assertlang.FromSource(d.Source); err != nil {
			return nil, err
		}
		s.inputs = figure8Inputs()
		s.tstop, s.tstep = 3e-3, 1e-6
		s.cstop, s.cstep = 3e-3, 1e-6
	}
	if !s.circuit {
		return s, nil
	}
	if arch == "" {
		if arch, err = res.Netlist.Encode(); err != nil {
			return nil, err
		}
	}
	if s.nl, err = netlist.Decode(arch); err != nil {
		return nil, fmt.Errorf("pinned architecture: %w", err)
	}
	s.arch = arch
	return s, nil
}

func simDesigns(s scale) []*design {
	out := []*design{appDesigns()[0]} // the receiver, Figure 8's design
	for _, i := range s.simSpecs {
		out = append(out, ladderDesign(i))
	}
	return out
}

// rk4 runs the behavioral transient over the spec's horizon and checks its
// assertion pragmas on the trace.
func rk4(t *tracer, id int, s *simDesign) rk4Obs {
	h := t.begin("sim", id)
	tr, err := sim.SimulateModule(s.m, s.inputs, sim.Options{TStop: s.tstop, TStep: s.tstep})
	t.end(h)
	if err != nil {
		return rk4Obs{Err: err.Error()}
	}
	t.add("sim.runs", 1)
	t.add("sim.steps", float64(len(tr.Time)))
	h = t.begin("assertlang", id)
	outs := assertlang.CheckTrace(s.asserts, tr)
	t.end(h)
	vd := newDigest()
	for _, o := range outs {
		vd.str(o.Assertion.Text).str(o.Verdict.String()).floats([]float64{o.At}).str(o.Detail)
	}
	return rk4Obs{Trace: hashSignals(tr.Time, tr.Signals), Verdicts: vd.hex()}
}

// circuitRun is one engine's complete observable output.
type circuitRun struct {
	obs circuitObs
	dc  mna.Solution
	tr  *mna.Tran
	el  *mna.Elaborated
}

// runCircuit elaborates the netlist and runs DC and the transient window
// on one solver tier. tier names the spans ("exact" or "fast").
func runCircuit(t *tracer, id int, s *simDesign, mode mna.SolverMode, tier string) (*circuitRun, error) {
	waves := make(map[string]mna.Waveform, len(s.inputs))
	for name, src := range s.inputs { //vase:unordered (map-to-map conversion)
		waves[name] = mna.Waveform(src)
	}
	h := t.begin("mna.elaborate", id)
	el, err := mna.Elaborate(s.nl, waves)
	t.end(h)
	if err != nil {
		return nil, fmt.Errorf("elaborate: %w", err)
	}
	c := el.Circuit
	c.Solver = mode
	run := &circuitRun{el: el}
	h = t.begin("mna."+tier+".dc", id)
	dc, err := c.DC()
	t.end(h)
	run.dc, run.obs.DCErr = dc, errText(err)
	run.obs.DC = newDigest().floats(dc).hex()
	h = t.begin("mna."+tier+".tran", id)
	tr, err := c.Transient(s.cstop, s.cstep)
	t.end(h)
	run.tr, run.obs.TranErr = tr, errText(err)
	run.obs.Tran = hashTran(tr)

	st := c.SolverStats()
	t.add("mna.circuit_ops", 1)
	t.add("mna."+tier+".ops", 1)
	t.add("mna."+tier+".factorizations", float64(st.Factorizations))
	t.add("mna."+tier+".reuses", float64(st.FactorReuses))
	t.add("mna.newton_iters", float64(st.NewtonIterations))
	t.add("mna.fast.fallbacks", float64(st.Fallbacks))
	t.add("mna.fill", float64(st.Fill))
	if run.obs.DCErr != "" {
		t.add("mna.dc_failed", 1)
	}
	return run, nil
}

// figure8Mismatch checks that the receiver's earph output clips at
// +-1.5 V, the paper's Figure 8 (not recorded output).
func figure8Mismatch(run *circuitRun) string {
	if run.tr == nil {
		return "Figure 8 transient failed: " + run.obs.TranErr
	}
	hi, lo := math.Inf(-1), math.Inf(1)
	for _, v := range run.el.V(run.tr, "earph") {
		hi, lo = math.Max(hi, v), math.Min(lo, v)
	}
	if math.Abs(hi-1.5) > 0.08 || math.Abs(lo+1.5) > 0.08 {
		return fmt.Sprintf("Figure 8 earph clips at %+.3f/%+.3f V, paper +-1.5 V", hi, lo)
	}
	return ""
}

// fastMismatch holds the fast tier to its contract against the reference:
// the golden engine errors, and the ErrorBudget wherever both succeeded.
func fastMismatch(run *circuitRun, want circuitGolden, ref refTrace) string {
	if run.obs.DCErr != want.FastDCErr || run.obs.TranErr != want.FastTranErr {
		return fmt.Sprintf("fast errors dc=%q tran=%q, golden dc=%q tran=%q",
			run.obs.DCErr, run.obs.TranErr, want.FastDCErr, want.FastTranErr)
	}
	var budget mna.ErrorBudget
	if want.Reference.DCErr == "" && run.obs.DCErr == "" {
		if err := budget.CompareSolution(ref.DC, run.dc); err != nil {
			return "fast DC outside budget: " + err.Error()
		}
	}
	if want.Reference.TranErr == "" && run.obs.TranErr == "" {
		if _, err := budget.CompareTran(&mna.Tran{Time: ref.Time, V: ref.V}, run.tr); err != nil {
			return "fast transient outside budget: " + err.Error()
		}
	}
	return ""
}

func simulateWorkload(s scale, g *goldens, refs map[string]refTrace) *workload {
	designs := simDesigns(s)
	return &workload{name: "simulate", collectEachOp: true, setup: func(seed int64) (*pass, error) {
		ps := &pass{teardown: func() {}}
		var built []*simDesign
		for _, d := range designs {
			sd, err := buildSimDesign(d, g.Architectures[d.Key])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.Key, err)
			}
			if sd.circuit && sd.arch != g.Architectures[d.Key] {
				return nil, fmt.Errorf("%s: no pinned architecture (regenerate with: go run . -regen)", d.Key)
			}
			if m := designMismatch(d, sd.obs, g.Designs[d.Key]); m != "" {
				sd.mismatch = "set-up synthesis: " + m
			}
			built = append(built, sd)
			ps.synthesized = append(ps.synthesized, sd.obs)
		}
		var ops []op
		for _, sd := range built {
			sd := sd
			key := sd.d.Key
			ops = append(ops, op{kind: "rk4", key: key, run: func(t *tracer, id int) opOut {
				got := rk4(t, id, sd)
				if sd.mismatch != "" {
					return opOut{mismatch: sd.mismatch}
				}
				if want, ok := g.Behavioral[key]; !ok || got != want {
					return opOut{mismatch: fmt.Sprintf("got %+v, golden %+v", got, want)}
				}
				return opOut{}
			}})
			if !sd.circuit {
				continue
			}
			ops = append(ops, op{kind: "exact", key: key, run: func(t *tracer, id int) opOut {
				run, err := runCircuit(t, id, sd, mna.SolverAuto, "exact")
				if err != nil || sd.mismatch != "" {
					return opOut{mismatch: sd.mismatch + errText(err)}
				}
				if want := g.Circuits[key].Reference; run.obs != want {
					return opOut{mismatch: fmt.Sprintf("exact tier %+v, reference %+v", run.obs, want)}
				}
				if sd.d.App != nil {
					return opOut{mismatch: figure8Mismatch(run)}
				}
				return opOut{}
			}})
			ops = append(ops, op{kind: "fast", key: key, run: func(t *tracer, id int) opOut {
				run, err := runCircuit(t, id, sd, mna.SolverFast, "fast")
				if err != nil || sd.mismatch != "" {
					return opOut{mismatch: sd.mismatch + errText(err)}
				}
				if m := fastMismatch(run, g.Circuits[key], refs[key]); m != "" {
					return opOut{mismatch: m}
				}
				if sd.d.App != nil {
					return opOut{mismatch: figure8Mismatch(run)}
				}
				return opOut{}
			}})
		}
		// Warm-up: every engine once on the first ladder spec, a toy.
		for _, o := range ops {
			if o.key != designs[1].Key {
				continue
			}
			o.run(nil, -1) // its outcome is checked when the op is timed
		}
		ps.ops = shuffled(ops, seed)
		return ps, nil
	}}
}
