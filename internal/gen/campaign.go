package gen

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vase/internal/absint"
	"vase/internal/assertlang"
	"vase/internal/compile"
	"vase/internal/diag"
	"vase/internal/lint"
	"vase/internal/mapper"
	"vase/internal/mna"
	"vase/internal/parser"
	"vase/internal/pipeline"
	"vase/internal/sema"
	"vase/internal/sim"
	"vase/internal/vhif"
)

// A Pair is one redundant implementation pair the differential campaign
// compares. Run returns nil when both sides agree (byte-level, where the
// contract is bitwise) and a descriptive error on any divergence.
type Pair struct {
	Name string
	Doc  string
	// MaxQuants skips specs larger than this (0 = no cap) — expensive
	// comparisons (exhaustive search, circuit-level solves) run on the
	// small grades only.
	MaxQuants int
	Run       func(*Spec) error
}

// Pairs returns the registered redundant pairs in execution order.
func Pairs() []*Pair {
	return []*Pair{
		{
			Name: "front",
			Doc:  "generated specs parse, lint clean and synthesize (generator contract)",
			Run:  pairFront,
		},
		{
			Name: "mapper",
			Doc:  "search by independent parts vs one traced part returns identical netlists",
			Run:  pairMapper,
		},
		{
			Name: "pipeline",
			Doc:  "cold vs disk-cached compilation and synthesis are byte-identical",
			Run:  pairPipeline,
		},
		{
			Name:      "solver",
			Doc:       "reference vs exact solver tiers agree bitwise on DC/transient/AC",
			MaxQuants: 10,
			Run:       pairSolver,
		},
		{
			Name:      "fast",
			Doc:       "fast-tier solver stays within the error budget of the reference and is deterministic",
			MaxQuants: 10,
			Run:       pairFast,
		},
		{
			Name: "anytime",
			Doc:  "truncated transients are bitwise prefixes; budgeted searches stay valid",
			Run:  pairAnytime,
		},
		{
			Name: "monitors",
			Doc:  "streaming and offline assertion checking agree; derived assertions hold",
			Run:  pairMonitors,
		},
		{
			Name: "static",
			Doc:  "abstract-interpretation verdicts are never contradicted by runtime monitors",
			Run:  pairStatic,
		},
	}
}

// PairNames lists the registered pair names.
func PairNames() []string {
	ps := Pairs()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// CompileSpec runs the front end directly (no shared caches, so campaign
// runs are hermetic).
func CompileSpec(sp *Spec) (*vhif.Module, error) {
	f, err := parser.Parse(sp.Name+".vhd", sp.Source)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	d, err := sema.AnalyzeOne(f)
	if err != nil {
		return nil, fmt.Errorf("sema: %w", err)
	}
	m, err := compile.Compile(d)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return m, nil
}

// searchOptions picks the synthesis strategy for a spec: exhaustive
// branch-and-bound on toys, first-fit on everything larger (the
// time-effective heuristic), so stress cases stay tractable.
func searchOptions(sp *Spec) mapper.Options {
	opts := mapper.DefaultOptions()
	if sp.Quants() > 12 {
		opts.FirstFit = true
	}
	return opts
}

func pairFront(sp *Spec) error {
	m, err := CompileSpec(sp)
	if err != nil {
		return err
	}
	diags, err := lint.CheckSource(sp.Name+".vhd", sp.Source, lint.Options{})
	if err != nil {
		return fmt.Errorf("lint: %w", err)
	}
	for _, d := range diags {
		// The range-driven advisory findings (dead branch, dead net,
		// saturation) are legitimate on random specs — the generator does
		// not scale its signal chains to the cell headroom and may pick
		// thresholds that pin a comparator. A statically-violated or
		// vacuous assertion (VASS0581/0582), by contrast, would mean the
		// generator's own derived bounds are inconsistent with the prover,
		// so those stay divergences.
		switch d.Code {
		case diag.CodeDeadBranch, diag.CodeDeadNet, diag.CodeSaturation:
			continue
		}
		if d.Severity >= diag.Warning {
			return fmt.Errorf("lint: generated spec not clean: %v", d)
		}
	}
	if _, err := mapper.Synthesize(m, searchOptions(sp)); err != nil {
		return fmt.Errorf("synthesize: %w", err)
	}
	return nil
}

// pairMapper compares the parts search with the one-part search, which
// Trace forces. Where the traced search finished, the two are byte-identical;
// where its cap cut it, the parts result may use no more op amps and no more
// area.
func pairMapper(sp *Spec) error {
	m, err := CompileSpec(sp)
	if err != nil {
		return err
	}
	opts := searchOptions(sp)
	parts, err := mapper.Synthesize(m, opts)
	if err != nil {
		return fmt.Errorf("parts search: %w", err)
	}
	opts.Trace, opts.MaxNodes = true, 1<<16
	one, err := mapper.Synthesize(m, opts)
	if err != nil {
		return fmt.Errorf("one-part search: %w", err)
	}
	if one.Nonoptimal {
		if p, o := parts.Netlist.OpAmpCount(), one.Netlist.OpAmpCount(); p > o || parts.Report.AreaUm2 > one.Report.AreaUm2 {
			return fmt.Errorf("parts search is worse than the capped one-part search: %d op amps, %g um2 vs %d, %g",
				p, parts.Report.AreaUm2, o, one.Report.AreaUm2)
		}
		return nil
	}
	if p, o := parts.Netlist.Dump(), one.Netlist.Dump(); p != o {
		return fmt.Errorf("netlist bytes diverge between parts and one part:\n--- parts\n%s\n--- one part\n%s", p, o)
	}
	if !bitsEq(parts.Report.AreaUm2, one.Report.AreaUm2) {
		return fmt.Errorf("area diverges: %g (parts) vs %g (one part)",
			parts.Report.AreaUm2, one.Report.AreaUm2)
	}
	return nil
}

func pairPipeline(sp *Spec) error {
	dir, err := os.MkdirTemp("", "vase-campaign-")
	if err != nil {
		return fmt.Errorf("tempdir: %w", err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	opts := searchOptions(sp)

	run := func() (string, string, error) {
		p, err := pipeline.New(pipeline.Options{CacheDir: dir})
		if err != nil {
			return "", "", fmt.Errorf("pipeline: %w", err)
		}
		cr, err := p.Compile(ctx, sp.Name+".vhd", sp.Source)
		if err != nil {
			return "", "", fmt.Errorf("compile: %w", err)
		}
		res, _, err := p.SynthesizeText(ctx, cr.Module, cr.Text, opts)
		if err != nil {
			return "", "", fmt.Errorf("synthesize: %w", err)
		}
		return cr.Text, res.Netlist.Dump(), nil
	}
	coldVHIF, coldNet, err := run()
	if err != nil {
		return fmt.Errorf("cold run: %w", err)
	}
	// The second pipeline shares only the on-disk store; its artifacts
	// must be byte-identical to the cold computation.
	warmVHIF, warmNet, err := run()
	if err != nil {
		return fmt.Errorf("warm run: %w", err)
	}
	if coldVHIF != warmVHIF {
		return fmt.Errorf("VHIF text diverges between cold and disk-cached compilation:\n--- cold\n%s\n--- warm\n%s", coldVHIF, warmVHIF)
	}
	if coldNet != warmNet {
		return fmt.Errorf("netlist diverges between cold and disk-cached synthesis:\n--- cold\n%s\n--- warm\n%s", coldNet, warmNet)
	}
	return nil
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// solverObservation is the complete observable output of one solver mode.
type solverObservation struct {
	dc    mna.Solution
	dcErr string
	tr    *mna.Tran
	trErr string
	ac    *mna.ACResult
	acErr string
	nodes int
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// specObserver elaborates a synthesized spec and returns a closure that runs
// the circuit-level DC + short-transient + short AC sweep observation under
// a solver mode — the shared harness of the solver and fast campaign pairs.
// The AC stimulus is the spec's first input in name order.
func specObserver(sp *Spec, res *mapper.Result) func(mode mna.SolverMode) (*solverObservation, error) {
	waves := make(map[string]mna.Waveform, len(sp.Inputs))
	first := ""
	for name, w := range sp.Inputs { //vase:unordered (map-to-map conversion and minimum key)
		waves[name] = mna.Waveform(w.Source())
		if first == "" || name < first {
			first = name
		}
	}
	return func(mode mna.SolverMode) (*solverObservation, error) {
		el, err := mna.Elaborate(res.Netlist, waves)
		if err != nil {
			return nil, fmt.Errorf("elaborate: %w", err)
		}
		c := el.Circuit
		c.Solver = mode
		o := &solverObservation{nodes: c.NumNodes()}
		dc, err := c.DC()
		o.dc, o.dcErr = dc, errText(err)
		// A short circuit-level window: long enough to exercise the
		// macromodels, short enough for the allocate-per-solve reference
		// eliminator.
		tr, err := c.Transient(100*sp.TStep, sp.TStep/5)
		o.tr, o.trErr = tr, errText(err)
		if first != "" {
			ac, err := c.AC("v_"+first, mna.LogSweep(10, 1e6, 12))
			o.ac, o.acErr = ac, errText(err)
		}
		return o, nil
	}
}

func pairSolver(sp *Spec) error {
	m, err := CompileSpec(sp)
	if err != nil {
		return err
	}
	res, err := mapper.Synthesize(m, searchOptions(sp))
	if err != nil {
		return fmt.Errorf("synthesize: %w", err)
	}
	observe := specObserver(sp, res)
	ref, err := observe(mna.SolverReference)
	if err != nil {
		return err
	}
	got, err := observe(mna.SolverAuto)
	if err != nil {
		return fmt.Errorf("exact: %w", err)
	}
	if err := compareObservations(ref, got); err != nil {
		return fmt.Errorf("exact vs reference: %w", err)
	}
	return nil
}

// pairFast compares the tolerance-tier engine against the reference under
// the fast tier's contract: not bitwise identity but the ErrorBudget — every
// DC value and transient sample within |fast-ref| <= AbsTol + RelTol*|ref|
// (with the one-sample event-skew allowance for discrete devices). The
// outcome contract is one-directional: the fast tier must not fail where
// the reference succeeds, but it may succeed where the reference diverges —
// its damped chord iteration takes a different path through a
// Newton-multistable landscape and occasionally lands on an operating
// point the full-Newton reference misses; a chord fixed point satisfies
// the same nonlinear system, so the extra answer is legitimate (just
// unverifiable, since there is no reference to compare against). A second
// fast run must be byte-identical to the first (determinism is what makes
// fast-tier results cacheable).
func pairFast(sp *Spec) error {
	m, err := CompileSpec(sp)
	if err != nil {
		return err
	}
	res, err := mapper.Synthesize(m, searchOptions(sp))
	if err != nil {
		return fmt.Errorf("synthesize: %w", err)
	}
	observe := specObserver(sp, res)
	ref, err := observe(mna.SolverReference)
	if err != nil {
		return err
	}
	fast, err := observe(mna.SolverFast)
	if err != nil {
		return fmt.Errorf("fast: %w", err)
	}
	var budget mna.ErrorBudget
	if ref.dcErr == "" {
		if fast.dcErr != "" {
			return fmt.Errorf("fast DC fails where reference succeeds: %q", fast.dcErr)
		}
		if err := budget.CompareSolution(ref.dc, fast.dc); err != nil {
			return fmt.Errorf("DC outside budget: %w", err)
		}
	}
	if ref.trErr == "" && ref.dcErr == "" {
		if fast.trErr != "" {
			return fmt.Errorf("fast transient fails where reference succeeds: %q", fast.trErr)
		}
		if _, err := budget.CompareTran(ref.tr, fast.tr); err != nil {
			return fmt.Errorf("transient outside budget: %w", err)
		}
	}
	again, err := observe(mna.SolverFast)
	if err != nil {
		return fmt.Errorf("fast rerun: %w", err)
	}
	if err := compareObservations(fast, again); err != nil {
		return fmt.Errorf("fast tier not deterministic: %w", err)
	}
	return nil
}

// compareObservations demands bitwise equality (identical errors count as
// agreement: every mode must fail the same way).
func compareObservations(ref, got *solverObservation) error {
	if ref.dcErr != got.dcErr {
		return fmt.Errorf("DC error %q, reference %q", got.dcErr, ref.dcErr)
	}
	if len(ref.dc) != len(got.dc) {
		return fmt.Errorf("DC dimension %d, reference %d", len(got.dc), len(ref.dc))
	}
	for i := range ref.dc {
		if !bitsEq(ref.dc[i], got.dc[i]) {
			return fmt.Errorf("DC[%d] %x, reference %x", i,
				math.Float64bits(got.dc[i]), math.Float64bits(ref.dc[i]))
		}
	}
	if err := compareAC(ref, got); err != nil {
		return err
	}
	if ref.trErr != got.trErr {
		return fmt.Errorf("transient error %q, reference %q", got.trErr, ref.trErr)
	}
	if (ref.tr == nil) != (got.tr == nil) {
		return fmt.Errorf("transient presence mismatch")
	}
	if ref.tr == nil {
		return nil
	}
	if len(ref.tr.Time) != len(got.tr.Time) || ref.tr.Truncated != got.tr.Truncated {
		return fmt.Errorf("transient shape mismatch: %d/%v, reference %d/%v",
			len(got.tr.Time), got.tr.Truncated, len(ref.tr.Time), ref.tr.Truncated)
	}
	for n := 1; n <= ref.nodes; n++ {
		rw, gw := ref.tr.V[mna.Node(n)], got.tr.V[mna.Node(n)]
		for i := range rw {
			if !bitsEq(rw[i], gw[i]) {
				return fmt.Errorf("node %d sample %d (t=%g): %x, reference %x",
					n, i, ref.tr.Time[i], math.Float64bits(gw[i]), math.Float64bits(rw[i]))
			}
		}
	}
	return nil
}

// compareAC demands bitwise-equal AC sweeps (or identical errors). Both
// observations stimulate the same source, so equal errors imply both or
// neither swept, and an uncancelled sweep solves every point.
func compareAC(ref, got *solverObservation) error {
	if ref.acErr != got.acErr {
		return fmt.Errorf("AC error %q, reference %q", got.acErr, ref.acErr)
	}
	if ref.ac == nil {
		return nil
	}
	for n := 1; n <= ref.nodes; n++ {
		rw, gw := ref.ac.V[mna.Node(n)], got.ac.V[mna.Node(n)]
		for i := range rw {
			if !bitsEq(real(rw[i]), real(gw[i])) || !bitsEq(imag(rw[i]), imag(gw[i])) {
				return fmt.Errorf("AC node %d point %d (%g Hz): %v, reference %v",
					n, i, ref.ac.Freqs[i], gw[i], rw[i])
			}
		}
	}
	return nil
}

func pairAnytime(sp *Spec) error {
	m, err := CompileSpec(sp)
	if err != nil {
		return err
	}
	opts := sim.Options{TStop: sp.TStop, TStep: sp.TStep}
	full, err := sim.SimulateModule(m, sp.Sources(), opts)
	if err != nil {
		return fmt.Errorf("full transient: %w", err)
	}
	opts.MaxSteps = len(full.Time) / 2
	if opts.MaxSteps < 1 {
		opts.MaxSteps = 1
	}
	part, err := sim.SimulateModule(m, sp.Sources(), opts)
	if err != nil {
		return fmt.Errorf("budgeted transient: %w", err)
	}
	if !part.Truncated {
		return fmt.Errorf("step budget %d did not truncate a %d-sample run",
			opts.MaxSteps, len(full.Time))
	}
	if len(part.Time) >= len(full.Time) {
		return fmt.Errorf("truncated run has %d samples, full run %d",
			len(part.Time), len(full.Time))
	}
	for i := range part.Time {
		if !bitsEq(part.Time[i], full.Time[i]) {
			return fmt.Errorf("time[%d] diverges: %x vs %x",
				i, math.Float64bits(part.Time[i]), math.Float64bits(full.Time[i]))
		}
	}
	for name, pw := range part.Signals { //vase:unordered (any divergence fails; per-key comparison)
		fw, ok := full.Signals[name]
		if !ok {
			return fmt.Errorf("signal %q only in truncated run", name)
		}
		for i := range pw {
			if !bitsEq(pw[i], fw[i]) {
				return fmt.Errorf("signal %q sample %d (t=%g) diverges: %x vs %x",
					name, i, part.Time[i], math.Float64bits(pw[i]), math.Float64bits(fw[i]))
			}
		}
	}

	// A node-budgeted search must stay an anytime algorithm: a valid
	// (possibly nonoptimal) netlist or a clean error — never a corrupt
	// result. When the budget did not truncate, the result must equal the
	// unbudgeted search's.
	mopts := searchOptions(sp)
	fullRes, err := mapper.Synthesize(m, mopts)
	if err != nil {
		return fmt.Errorf("unbudgeted search: %w", err)
	}
	mopts.MaxNodes = 64
	budRes, err := mapper.Synthesize(m, mopts)
	if err != nil {
		return fmt.Errorf("budgeted search errored (anytime contract wants an incumbent): %w", err)
	}
	if budRes.Netlist == nil || budRes.Report == nil {
		return fmt.Errorf("budgeted search returned nil netlist/report")
	}
	if !budRes.Nonoptimal && budRes.Netlist.Dump() != fullRes.Netlist.Dump() {
		return fmt.Errorf("budgeted search claims optimality but differs from the unbudgeted result")
	}
	return nil
}

func pairMonitors(sp *Spec) error {
	m, err := CompileSpec(sp)
	if err != nil {
		return err
	}
	check := func(maxSteps int) ([]assertlang.Outcome, []assertlang.Outcome, *sim.Trace, error) {
		ms := assertlang.Monitors(sp.Asserts)
		tr, err := sim.SimulateModule(m, sp.Sources(), sim.Options{
			TStop: sp.TStop, TStep: sp.TStep, MaxSteps: maxSteps,
			OnSample: assertlang.StreamSim(ms),
		})
		if err != nil {
			return nil, nil, nil, err
		}
		streaming := assertlang.FinishAll(ms, tr.Truncated)
		offline := assertlang.CheckTrace(sp.Asserts, tr)
		return streaming, offline, tr, nil
	}
	streaming, offline, tr, err := check(0)
	if err != nil {
		return fmt.Errorf("transient: %w", err)
	}
	for i := range streaming {
		if streaming[i].Verdict != offline[i].Verdict {
			return fmt.Errorf("assertion %q: streaming %v, offline %v",
				sp.Asserts[i].Text, streaming[i].Verdict, offline[i].Verdict)
		}
		if streaming[i].Verdict == assertlang.Fail {
			return fmt.Errorf("derived assertion %q failed on the full run: %s",
				sp.Asserts[i].Text, streaming[i].Detail)
		}
	}
	// On a truncated prefix every verdict must be Pass or Unknown — a
	// Fail would claim a violation the sound prefix semantics cannot
	// justify (the full run above just showed none exists).
	pStream, pOff, ptr, err := check(len(tr.Time) / 2)
	if err != nil {
		return fmt.Errorf("truncated transient: %w", err)
	}
	if !ptr.Truncated {
		return fmt.Errorf("step budget did not truncate the monitor run")
	}
	for i := range pStream {
		if pStream[i].Verdict != pOff[i].Verdict {
			return fmt.Errorf("assertion %q on prefix: streaming %v, offline %v",
				sp.Asserts[i].Text, pStream[i].Verdict, pOff[i].Verdict)
		}
		if pStream[i].Verdict == assertlang.Fail {
			return fmt.Errorf("assertion %q fails on a truncated prefix of a passing run",
				sp.Asserts[i].Text)
		}
	}
	return nil
}

// pairStatic is the soundness campaign of the abstract interpreter: the
// static verdict for every derived assertion must respect the contract
// against the runtime monitors — a Prove can never coexist with a runtime
// Fail, a Refute can never coexist with a runtime Pass. The runtime side
// observes one concrete input waveform; the static side claims ALL of
// them, so any contradiction is a transfer-function or fixpoint bug, never
// a generator artifact.
func pairStatic(sp *Spec) error {
	m, err := CompileSpec(sp)
	if err != nil {
		return err
	}
	r := absint.Analyze(m)
	props := r.CheckAll(sp.Asserts)
	ms := assertlang.Monitors(sp.Asserts)
	tr, err := sim.SimulateModule(m, sp.Sources(), sim.Options{
		TStop: sp.TStop, TStep: sp.TStep,
		OnSample: assertlang.StreamSim(ms),
	})
	if err != nil {
		return fmt.Errorf("transient: %w", err)
	}
	outs := assertlang.FinishAll(ms, tr.Truncated)
	for i, p := range props {
		if p.Verdict == absint.Prove && outs[i].Verdict == assertlang.Fail {
			return fmt.Errorf("assertion %q: static Prove contradicted by runtime Fail (%s; static hulls: %s)",
				sp.Asserts[i].Text, outs[i].Detail, p.Reason)
		}
		if p.Verdict == absint.Refute && outs[i].Verdict == assertlang.Pass {
			return fmt.Errorf("assertion %q: static Refute contradicted by runtime Pass (static hulls: %s)",
				sp.Asserts[i].Text, p.Reason)
		}
	}
	return nil
}

// Divergence is one campaign failure: a spec on which a redundant pair
// disagreed, plus its shrunken reproducer when shrinking ran.
type Divergence struct {
	Seed  int64
	Index int
	Size  Size
	Pair  string
	Err   error
	Spec  *Spec
	// Shrunk is the minimal model still reproducing the divergence (nil
	// when shrinking was disabled).
	Shrunk *Spec
}

func (d *Divergence) String() string {
	return fmt.Sprintf("pair %q diverged on spec seed=%d index=%d size=%s: %v",
		d.Pair, d.Seed, d.Index, d.Size, d.Err)
}

// CampaignOptions configures RunCampaign.
type CampaignOptions struct {
	// Pairs selects pair names to run (nil = all registered pairs).
	Pairs []string
	// Size forces one size grade; nil uses the mixed ladder (MixedSize).
	Size *Size
	// Shrink minimizes each failing spec to a reproducer.
	Shrink bool
	// MaxDivergences stops the campaign early (0 = collect all).
	MaxDivergences int
	// Workers runs specs concurrently (0 or 1 = sequential). Every
	// spec×pair combination is evaluated hermetically, so the divergence
	// set is independent of the worker count; divergences are reported in
	// spec order either way.
	Workers int
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
}

// CampaignResult summarizes a campaign.
type CampaignResult struct {
	Specs       int
	PairRuns    int
	Skipped     int // pair×spec combinations skipped by MaxQuants caps
	Divergences []*Divergence
	Elapsed     time.Duration
}

// RunCampaign generates n specs from the seed and drives every selected
// redundant pair over each, recording divergences (shrunken to minimal
// reproducers when opts.Shrink is set).
func RunCampaign(seed int64, n int, opts CampaignOptions) (*CampaignResult, error) {
	pairs, err := selectPairs(opts.Pairs)
	if err != nil {
		return nil, err
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	start := time.Now() //vase:walltime (campaign telemetry)
	res := &CampaignResult{}
	var (
		mu      sync.Mutex
		next    atomic.Int64
		stopped atomic.Bool
	)
	next.Store(-1)
	runSpec := func() {
		for {
			i := int(next.Add(1))
			if i >= n || stopped.Load() {
				return
			}
			size := MixedSize(i)
			if opts.Size != nil {
				size = *opts.Size
			}
			sp := Generate(seed, i, size)
			var runs, skipped int
			var divs []*Divergence
			for _, p := range pairs {
				if p.MaxQuants > 0 && sp.Quants() > p.MaxQuants {
					skipped++
					continue
				}
				runs++
				err := p.Run(sp)
				if err == nil {
					continue
				}
				d := &Divergence{
					Seed: seed, Index: i, Size: size,
					Pair: p.Name, Err: err, Spec: sp,
				}
				if opts.Shrink {
					d.Shrunk = Shrink(sp, p.Run)
				}
				divs = append(divs, d)
			}
			mu.Lock()
			res.Specs++
			res.PairRuns += runs
			res.Skipped += skipped
			for _, d := range divs {
				logf("DIVERGENCE %s", d)
				if d.Shrunk != nil {
					logf("shrunk seed=%d index=%d: %d -> %d quantities",
						seed, i, d.Spec.Quants(), d.Shrunk.Quants())
				}
			}
			res.Divergences = append(res.Divergences, divs...)
			if opts.MaxDivergences > 0 && len(res.Divergences) >= opts.MaxDivergences {
				stopped.Store(true)
			}
			if res.Specs%50 == 0 {
				logf("%d/%d specs, %d pair runs, %d divergences",
					res.Specs, n, res.PairRuns, len(res.Divergences))
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runSpec()
		}()
	}
	wg.Wait()
	// Workers complete specs out of order; normalize so the report (and
	// the first divergence a caller inspects) is worker-count independent.
	sort.Slice(res.Divergences, func(a, b int) bool {
		da, db := res.Divergences[a], res.Divergences[b]
		if da.Index != db.Index {
			return da.Index < db.Index
		}
		return da.Pair < db.Pair
	})
	res.Elapsed = time.Since(start) //vase:walltime (campaign telemetry)
	return res, nil
}

func selectPairs(names []string) ([]*Pair, error) {
	all := Pairs()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*Pair, len(all))
	for _, p := range all {
		byName[p.Name] = p
	}
	var out []*Pair
	for _, n := range names {
		p, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("gen: unknown pair %q (have %v)", n, PairNames())
		}
		out = append(out, p)
	}
	return out, nil
}
