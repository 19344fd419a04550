// Package vase is a behavioral synthesis environment for analog systems:
// an open reimplementation of the VASE flow from "A VHDL-AMS Compiler and
// Architecture Generator for Behavioral Synthesis of Analog Systems"
// (Doboli & Vemuri, DATE 1999).
//
// The flow has two technology-separated steps:
//
//  1. Compile: a VASS specification (the VHDL-AMS subset for synthesis) is
//     parsed, checked, and translated into VHIF — interconnected
//     signal-flow graphs for the continuous-time behavior and finite state
//     machines for the event-driven behavior.
//  2. Synthesize: a branch-and-bound architecture generator maps the VHIF
//     representation onto a minimum-area netlist of op-amp-level library
//     components, guided by an analog performance estimator.
//
// Synthesized designs can be verified by behavioral transient simulation
// (Design.Simulate, Architecture.Simulate) and by circuit-level simulation
// of op-amp macromodel expansions (Spice), reproducing the paper's receiver
// experiment end to end.
//
// Every operation has one call form: a context first and, for the
// pipeline-backed ones, a *Pipeline second, where nil means
// DefaultPipeline(). A minimal session:
//
//	ctx := context.Background()
//	design, err := vase.Compile(ctx, nil, vase.Source{Name: "amp.vhd", Text: src})
//	...
//	arch, err := design.Synthesize(ctx, vase.DefaultSynthesisOptions())
//	fmt.Println(arch.Netlist.Summary(), arch.Report.AreaUm2)
package vase

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"vase/internal/absint"
	"vase/internal/ast"
	"vase/internal/compile"
	"vase/internal/corpus"
	"vase/internal/diag"
	"vase/internal/estimate"
	"vase/internal/lint"
	"vase/internal/mapper"
	"vase/internal/mna"
	"vase/internal/netlist"
	"vase/internal/patterns"
	"vase/internal/pipeline"
	"vase/internal/sema"
	"vase/internal/sim"
	"vase/internal/source"
	"vase/internal/vhif"
	"vase/internal/wavespec"
)

// Source is a named VASS source text.
type Source struct {
	Name string
	Text string
}

// Design is a compiled VASS design: the analyzed front-end model plus its
// VHIF intermediate representation.
type Design struct {
	// Name is the entity name.
	Name string
	// AST is the parsed design file. It is nil when the design was served
	// from a pipeline's on-disk cache (only the VHIF module and the front
	// metrics are persisted).
	AST *ast.DesignFile
	// Sema is the analyzed design (symbol tables, types, Table 1 metrics).
	// Like AST, it is nil on a disk-cache hit.
	Sema *sema.Design
	// VHIF is the intermediate representation.
	VHIF *vhif.Module
	// Stats are the front-end Table 1 metrics (available even when Sema is
	// nil).
	Stats pipeline.FrontStats
	// Cached reports that compilation was served from the pipeline cache.
	Cached bool

	// pipe is the pipeline that compiled the design (synthesis and
	// simulation of the design route through it); text is the VHIF module's
	// canonical serialization, the map stage's cache-key input.
	pipe *pipeline.Pipeline
	text string
}

// Pipeline is a pass manager that memoizes the synthesis flow's stages
// (parse, sema, VHIF compilation, lint, architecture generation) under
// content-addressed keys, with an in-memory LRU and an optional on-disk
// artifact store shared across processes. See NewPipeline.
type Pipeline = pipeline.Pipeline

// PipelineOptions configures NewPipeline (LRU size, cache directory).
type PipelineOptions = pipeline.Options

// PipelineStats is a snapshot of a pipeline's per-stage cache counters.
type PipelineStats = pipeline.Stats

// NewPipeline builds a pass pipeline. With a zero Options value the
// pipeline memoizes in memory only; set Options.CacheDir to persist compile
// and synthesis artifacts across processes.
func NewPipeline(opts PipelineOptions) (*Pipeline, error) { return pipeline.New(opts) }

// DefaultPipeline returns the process-wide pipeline used by Compile, Lint,
// Synthesize and the benchmark harness when no explicit pipeline is given.
func DefaultPipeline() *Pipeline { return pipeline.Default() }

// orDefault resolves the nil *Pipeline of the facade's call forms.
func orDefault(p *Pipeline) *Pipeline {
	if p == nil {
		return pipeline.Default()
	}
	return p
}

// RenderDiagnostics formats a Compile error with source excerpts and caret
// markers when the error carries positions; other errors format plainly.
func RenderDiagnostics(err error, src Source) string {
	if err == nil {
		return ""
	}
	f := source.NewFile(src.Name, src.Text)
	var dl diag.List
	if errors.As(err, &dl) {
		return dl.Render(f)
	}
	var d *diag.Diagnostic
	if errors.As(err, &d) {
		return d.Render(f)
	}
	var list source.ErrorList
	if errors.As(err, &list) {
		return list.RenderList(f)
	}
	return err.Error()
}

// Compile parses, analyzes and compiles a VASS source into its primary VHIF
// representation through p (nil = DefaultPipeline()), so recompilations of
// an unchanged source are served from cache. The context is checked
// between front-end stages (parse, analyze, compile, validate): a deadlined
// compilation returns promptly with the context's error, and is never
// cached.
func Compile(ctx context.Context, p *Pipeline, src Source) (*Design, error) {
	p = orDefault(p)
	cr, err := p.Compile(ctx, src.Name, src.Text)
	if err != nil {
		return nil, err
	}
	return &Design{
		Name:   cr.Name,
		AST:    cr.AST,
		Sema:   cr.Sema,
		VHIF:   cr.Module,
		Stats:  cr.Stats,
		Cached: cr.Cached,
		pipe:   p,
		text:   cr.Text,
	}, nil
}

// RangeAnalysis is the memoized output of the pipeline's ranges stage: the
// static value hull of every probe-resolvable signal of a design, computed
// by abstract interpretation over the VHIF graph. Its Check/CheckAll
// methods decide assert pragmas statically (Prove/Refute/Unknown).
type RangeAnalysis = pipeline.RangesResult

// StaticProperty pairs an assertion with its static verdict and the range
// facts it rests on.
type StaticProperty = absint.Property

// StaticVerdict is the outcome of checking one assertion against static
// hulls. Prove guarantees the runtime monitor can never report Fail;
// Refute guarantees it can never report Pass; Unknown makes no claim.
type StaticVerdict = absint.Verdict

// The static verdicts.
const (
	StaticUnknown = absint.Unknown
	StaticProve   = absint.Prove
	StaticRefute  = absint.Refute
)

// Ranges runs (or reuses) the value-range analysis for the design through
// the pipeline that compiled it.
func (d *Design) Ranges(ctx context.Context) (*RangeAnalysis, error) {
	return orDefault(d.pipe).RangesText(ctx, d.VHIF, d.text)
}

// LintOptions configures a lint run (pass selection).
type LintOptions = lint.Options

// Diagnostics is a sorted, deduplicated list of structured findings.
type Diagnostics = diag.List

// Severity levels for filtering Diagnostics.
const (
	SeverityInfo    = diag.Info
	SeverityWarning = diag.Warning
	SeverityError   = diag.Error
)

// Lint runs the synthesizability linter over a VASS source through p (nil =
// DefaultPipeline()): the full front end plus every analyzer (unused
// objects, FSM liveness, algebraic loops, dimension consistency, division
// hazards, range checks, annotation validation, subset conformance), with
// the context checked between front-end stages and analyzer passes.
// Front-end errors are folded into the returned list; the error return is
// reserved for driver misuse such as an unknown pass name.
func Lint(ctx context.Context, p *Pipeline, src Source, opts LintOptions) (Diagnostics, error) {
	return orDefault(p).Lint(ctx, src.Name, src.Text, opts)
}

// LintVHIF runs the module-level analyzers over serialized VHIF text
// through p (nil = DefaultPipeline()), with the context checked between
// analyzer passes.
func LintVHIF(ctx context.Context, p *Pipeline, name, text string, opts LintOptions) (Diagnostics, error) {
	return orDefault(p).LintVHIF(ctx, name, text, opts)
}

// LintPasses returns the registered analyzers (name and one-line doc), in
// execution order.
func LintPasses() []*lint.Pass { return lint.Passes() }

// CompileAlternatives compiles up to limit alternative DAE solver
// topologies (limit <= 0 means all feasible ones). The front end reuses the
// parse and sema stages of p (nil = DefaultPipeline()) under ctx; the
// alternatives themselves are not cached.
func CompileAlternatives(ctx context.Context, p *Pipeline, src Source, limit int) ([]*vhif.Module, error) {
	d, err := orDefault(p).Analyze(ctx, src.Name, src.Text)
	if err != nil {
		return nil, err
	}
	return compile.CompileAll(d, limit)
}

// Metrics returns the design's Table 1 metrics.
func (d *Design) Metrics() corpus.Row {
	return corpus.Row{
		ContinuousLines: d.Stats.ContinuousLines,
		Quantities:      d.Stats.Quantities,
		EventLines:      d.Stats.EventLines,
		Signals:         d.Stats.Signals,
		Blocks:          d.VHIF.BlockCount(),
		States:          d.VHIF.StateCount(),
		Datapath:        d.VHIF.DatapathCount(),
	}
}

// ParseVHIF reads the VHIF text format (as produced by Design.VHIF.Dump or
// the vassc tool) back into a module, so synthesis can run from serialized
// intermediate representations.
func ParseVHIF(text string) (*vhif.Module, error) { return vhif.Parse(text) }

// SynthesizeModule runs the architecture generator directly on a VHIF
// module (for example one read with ParseVHIF) through p (nil =
// DefaultPipeline()). The context makes the branch-and-bound search
// anytime: on cancellation or deadline expiry, instead of failing, it
// returns the best implementation found so far with
// Architecture.Nonoptimal set (the result is a valid netlist, just without
// an optimality proof). Truncated results are never cached.
func SynthesizeModule(ctx context.Context, p *Pipeline, m *vhif.Module, opts SynthesisOptions) (*Architecture, error) {
	res, cached, err := orDefault(p).SynthesizeModule(ctx, m, opts)
	if err != nil {
		return nil, err
	}
	return newArchitecture(res, cached), nil
}

// newArchitecture wraps a mapper result in the public Architecture type.
func newArchitecture(res *mapper.Result, cached bool) *Architecture {
	return &Architecture{
		Netlist:    res.Netlist,
		Report:     res.Report,
		Stats:      res.Stats,
		Tree:       res.Tree,
		Nonoptimal: res.Nonoptimal,
		Cached:     cached,
	}
}

// Synthesize compiles and synthesizes a VASS source in one call through p
// (nil = DefaultPipeline()), which memoizes both the front end and the
// architecture generation — the anytime entry point. The front end always
// runs to completion (it is fast, and its output is needed even for a
// truncated result); the context governs the branch-and-bound search,
// which on expiry returns its best incumbent with Architecture.Nonoptimal
// set.
func Synthesize(ctx context.Context, p *Pipeline, src Source, opts SynthesisOptions) (*Architecture, error) {
	d, err := Compile(context.Background(), p, src)
	if err != nil {
		return nil, err
	}
	return d.Synthesize(ctx, opts)
}

// SynthesisOptions re-exports the architecture generator configuration.
// The search runs the design's independent parts one at a time; Trace
// searches it as one part and returns the same netlist. Workers is
// deprecated and ignored.
type SynthesisOptions = mapper.Options

// DefaultSynthesisOptions returns the standard configuration (SCN 2.0 µm
// process, audio-range system specification).
func DefaultSynthesisOptions() SynthesisOptions { return mapper.DefaultOptions() }

// PatternOptions re-exports the pattern-generation controls.
type PatternOptions = patterns.Options

// Architecture is a synthesized op-amp-level implementation.
type Architecture struct {
	Netlist *netlist.Netlist
	Report  *netlist.Report
	Stats   mapper.Stats
	Tree    *mapper.TreeNode
	// Nonoptimal is set when the search was cut short by a cancellation,
	// deadline or node budget: the netlist is the best incumbent found, not
	// a proven minimum-area implementation. Stats.Elapsed and
	// Stats.NodesVisited record how far the search got. Nonoptimal results
	// are never cached.
	Nonoptimal bool
	// Cached reports that the architecture was served from the pipeline
	// cache instead of running the branch-and-bound search; Stats then
	// describes the original search that produced the cached artifact.
	Cached bool
	// SimSolver selects the MNA solver tier for the Spice and AC
	// verification steps. The zero value is the exact planned engine
	// (bit-identical to mna.SolverReference); mna.SolverFast trades
	// bit-identity for speed under SimBudget.
	SimSolver mna.SolverMode
	// SimBudget is the fast tier's error budget (zero value = the
	// documented defaults). It is part of the simulation's identity: cached
	// fast-tier results are keyed on it.
	SimBudget mna.ErrorBudget
}

// Synthesize maps the design onto a minimum-area component netlist (pass
// DefaultSynthesisOptions() for the standard configuration); see
// SynthesizeModule for the anytime contract. The search runs through the
// pipeline that compiled the design, so re-synthesizing an unchanged design
// under unchanged options is a cache hit.
func (d *Design) Synthesize(ctx context.Context, opts SynthesisOptions) (*Architecture, error) {
	text := d.text
	if text == "" { // a Design built by hand rather than by Compile
		text = d.VHIF.Dump()
	}
	res, cached, err := orDefault(d.pipe).SynthesizeText(ctx, d.VHIF, text, opts)
	if err != nil {
		return nil, err
	}
	return newArchitecture(res, cached), nil
}

// SolverMode re-exports the MNA solver-tier selector for
// Architecture.SimSolver.
type SolverMode = mna.SolverMode

// The two solver tiers of the public API: the exact planned engine
// (bit-identical to the original reference eliminator) and the
// tolerance-tier engine (deterministic, within ErrorBudget of the
// reference). The third tier, mna.SolverReference, is the equivalence-test
// oracle and has no facade constant; the tools reach it as -solver
// reference.
const (
	SolverExact SolverMode = mna.SolverAuto
	SolverFast  SolverMode = mna.SolverFast
)

// Simulation re-exports.
type (
	// Waveform is an input source for simulations.
	Waveform = sim.Source
	// Trace holds simulated waveforms.
	Trace = sim.Trace
	// SimOptions configures a transient run.
	SimOptions = sim.Options
)

// Waveform constructors.
var (
	// DC is a constant source.
	DC = sim.DC
	// Sine is a sinusoidal source (amplitude, frequency Hz, phase rad).
	Sine = sim.Sine
	// StepAt switches from one level to another at a given time.
	StepAt = sim.Step
	// Ramp is a linear ramp with the given slope.
	Ramp = sim.Ramp
)

// ParseWaveform parses a textual waveform specification — dc:V,
// sine:AMP,FREQ, step:V0,V1,T0 or ramp:SLOPE — as accepted by vasesim -in
// and the vased /v1/simulate endpoint.
func ParseWaveform(spec string) (Waveform, error) {
	return wavespec.Parse(spec)
}

// Simulate runs a behavioral transient analysis of the design's VHIF
// signal-flow graphs, lowered once to the slot program the netlist level
// shares. Cancellation (a context deadline included) or
// SimOptions.MaxSteps stops the integration early and returns the partial
// trace with Trace.Truncated set.
func (d *Design) Simulate(ctx context.Context, inputs map[string]Waveform, opts SimOptions) (*Trace, error) {
	return sim.SimulateModuleContext(ctx, d.VHIF, inputs, opts)
}

// Simulate runs a functional transient analysis of the synthesized netlist
// (every component evaluates its ideal transfer function). A cancelled or
// deadlined run returns the partial trace with Trace.Truncated set.
func (a *Architecture) Simulate(ctx context.Context, inputs map[string]Waveform, opts SimOptions) (*Trace, error) {
	return sim.SimulateNetlistContext(ctx, a.Netlist, inputs, opts)
}

// ErrorBudget re-exports the fast tier's tolerance pair: the bound
// |fast - ref| <= AbsTol + RelTol*|ref| every SolverFast trace point honors
// against the reference solver. The zero value means the documented
// defaults.
type ErrorBudget = mna.ErrorBudget

// SpiceResult is a circuit-level (MNA) simulation of a synthesized netlist.
type SpiceResult struct {
	Elab *mna.Elaborated
	Tran *mna.Tran
	// Stats summarizes the linear-solver work behind the run: Newton
	// iterations, factorizations, system dimension and the sparse plan's
	// pattern size.
	Stats mna.SolverStats
}

// V returns the polarity-corrected waveform of a port or net.
func (r *SpiceResult) V(name string) []float64 { return r.Elab.V(r.Tran, name) }

// Time returns the simulation time points.
func (r *SpiceResult) Time() []float64 { return r.Tran.Time }

// Spice elaborates the netlist into an op-amp macromodel circuit and runs a
// transient analysis — the paper's SPICE verification step. A cancelled or
// deadlined transient returns the samples computed so far with
// Tran.Truncated set.
func (a *Architecture) Spice(ctx context.Context, inputs map[string]Waveform, tstop, tstep float64) (*SpiceResult, error) {
	waves := make(map[string]mna.Waveform, len(inputs))
	for name, w := range inputs {
		waves[name] = mna.Waveform(w)
	}
	el, tr, err := pipeline.Transient(ctx, a.Netlist, waves, tstop, tstep, a.spiceOptions())
	if err != nil {
		return nil, err
	}
	return &SpiceResult{Elab: el, Tran: tr, Stats: el.Circuit.SolverStats()}, nil
}

// SpiceVia is Spice with the transient memoized in p (nil =
// DefaultPipeline()): the only memoized form, because it takes textual
// waveform specs (the ParseWaveform grammar) rather than functions —
// functions are not content-addressable, their specs are. The cache key
// covers the encoded netlist, the specs, the analysis window and the
// solver tier with its error budget, so a fast-tier trace never
// masquerades as an exact one (and vice versa); see pipeline.SpiceKey. On
// a hit the solver never runs: the stored samples are rehydrated onto a
// fresh elaboration of the circuit.
func (a *Architecture) SpiceVia(ctx context.Context, p *Pipeline, inputs map[string]string, tstop, tstep float64) (*SpiceResult, error) {
	r, err := orDefault(p).Spice(ctx, a.Netlist, inputs, tstop, tstep, a.spiceOptions())
	if err != nil {
		return nil, err
	}
	return &SpiceResult{Elab: r.Elab, Tran: r.Tran, Stats: r.Elab.Circuit.SolverStats()}, nil
}

// spiceOptions is the architecture's solver-tier selection for transients.
func (a *Architecture) spiceOptions() pipeline.SpiceOptions {
	return pipeline.SpiceOptions{Solver: a.SimSolver, Budget: a.SimBudget}
}

// ACResponse is a small-signal frequency sweep of a synthesized circuit.
type ACResponse struct {
	Freqs []float64
	// Truncated is set when a cancelled or deadlined context stopped the
	// sweep early; Freqs holds the points solved so far.
	Truncated bool
	// Stats summarizes the linear-solver work behind the sweep.
	Stats  mna.SolverStats
	elab   *mna.Elaborated
	result *mna.ACResult
}

// Mag returns the magnitude response at a port or net (polarity-independent).
func (r *ACResponse) Mag(name string) []float64 {
	if n, ok := r.elab.NodeOf[name]; ok {
		return r.result.MagOf(n)
	}
	return r.result.Mag(name)
}

// MagDB returns the magnitude response in decibels.
func (r *ACResponse) MagDB(name string) []float64 {
	mags := r.Mag(name)
	out := make([]float64, len(mags))
	for i, m := range mags {
		out[i] = 20 * math.Log10(math.Max(m, 1e-18))
	}
	return out
}

// AC elaborates the netlist into its op-amp macromodel circuit and runs a
// small-signal frequency sweep with the named input port as the stimulus:
// points log-spaced frequencies in [f1, f2]. Other inputs are held at their
// DC values (zero). The context is checked between frequency points: a
// cancelled or deadlined sweep returns the prefix of points solved so far
// with ACResponse.Truncated set, matching the anytime contract of the
// transient simulators. The sweep needs at least one point and finite
// bounds above zero.
func (a *Architecture) AC(ctx context.Context, stimulus string, f1, f2 float64, points int) (*ACResponse, error) {
	if points < 1 {
		return nil, fmt.Errorf("vase: AC sweep needs at least one point, got %d", points)
	}
	if !(f1 > 0 && f1 <= math.MaxFloat64 && f2 > 0 && f2 <= math.MaxFloat64) {
		return nil, fmt.Errorf("vase: AC sweep bounds %g and %g Hz must be finite and above zero", f1, f2)
	}
	waves := zeroInputs(a.Netlist)
	if _, ok := waves[stimulus]; !ok {
		return nil, fmt.Errorf("vase: no input port %q for the AC stimulus", stimulus)
	}
	el, err := mna.Elaborate(a.Netlist, waves)
	if err != nil {
		return nil, err
	}
	el.Circuit.Solver = a.SimSolver
	el.Circuit.Budget = a.SimBudget
	freqs := mna.LogSweep(f1, f2, points)
	res, err := el.Circuit.ACContext(ctx, "v_"+stimulus, freqs)
	if err != nil {
		return nil, err
	}
	return &ACResponse{Freqs: res.Freqs, Truncated: res.Truncated, Stats: el.Circuit.SolverStats(), elab: el, result: res}, nil
}

// SpiceDeck renders the elaborated circuit of the netlist as a SPICE deck.
func (a *Architecture) SpiceDeck() (string, error) {
	// Elaborate with placeholder sources; the deck marks them for the user
	// to replace.
	el, err := mna.Elaborate(a.Netlist, zeroInputs(a.Netlist))
	if err != nil {
		return "", err
	}
	return el.Circuit.SpiceDeck(a.Netlist.Name), nil
}

// zeroInputs binds every input port of the netlist to a 0 V source.
func zeroInputs(nl *netlist.Netlist) map[string]mna.Waveform {
	waves := map[string]mna.Waveform{}
	for _, p := range nl.Ports {
		if p.Dir == netlist.In {
			waves[p.Name] = func(float64) float64 { return 0 }
		}
	}
	return waves
}

// Process and SystemSpec re-export the estimation configuration.
type (
	// Process is a CMOS technology description.
	Process = estimate.Process
	// SystemSpec is the design-wide signal requirement.
	SystemSpec = estimate.SystemSpec
)

// SCN20 is the MOSIS SCN 2.0 µm-class process of the paper's experiments.
var SCN20 = estimate.SCN20

// Sizing runs the transistor-sizing step on the synthesized netlist (the
// VASE flow's stage after behavioral synthesis) and returns one sized
// two-stage op amp per instance.
func (a *Architecture) Sizing() ([]netlist.SizedOpAmp, error) {
	return a.Netlist.SizingReport(estimate.SCN20, estimate.DefaultSystemSpec())
}

// FormatSizing renders a sizing report as transistor dimension tables.
func FormatSizing(sized []netlist.SizedOpAmp) string {
	return netlist.FormatSizing(estimate.SCN20, sized)
}

// FormatDecisionTree renders a traced branch-and-bound decision tree
// (paper Figure 6 style). Synthesize with SynthesisOptions.Trace set.
func FormatDecisionTree(n *mapper.TreeNode) string { return mapper.FormatTree(n) }

// Benchmarks returns the paper's five benchmark applications.
func Benchmarks() []*corpus.Application { return corpus.Applications() }

// Benchmark returns one benchmark by key (receiver, powermeter, missile,
// itersolver, funcgen). An unknown key's error lists the valid keys.
func Benchmark(key string) (*corpus.Application, error) {
	app := corpus.ByKey(key)
	if app == nil {
		return nil, fmt.Errorf("vase: no benchmark %q (valid keys: %s)",
			key, strings.Join(corpus.Keys(), ", "))
	}
	return app, nil
}
