// Command vasesim simulates a VASS design: behavioral transient analysis of
// the compiled VHIF, functional simulation of the synthesized netlist, or
// circuit-level simulation of the op-amp macromodel expansion.
//
// Inputs are specified as -in name=spec with specs dc:V, sine:AMP,FREQ,
// step:V0,V1,T0 or ramp:SLOPE.
//
// With -assert, any "-- assert:" pragmas in the source are first decided
// statically by the value-range analysis: a property the abstract
// interpreter proves holds for EVERY input waveform, so its runtime monitor
// is skipped. The remaining assertions are evaluated against the simulated
// trace and the per-assertion verdicts printed. A FAIL exits 1; a run whose
// final verdicts include UNKNOWN (an undecided monitor on a truncated or
// too-short trace) prints a distinct summary line and exits 3, so scripts
// can tell "checked and passed" from "not decided".
//
// Usage:
//
//	vasesim -benchmark receiver -in line=sine:1.5,1000 -in local=dc:0 \
//	        -tstop 3e-3 -tstep 1e-6 -level circuit
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"vase"
	"vase/internal/assertlang"
	"vase/internal/cliopt"
	"vase/internal/exitcode"
	"vase/internal/solveropt"
)

type inputFlags map[string]vase.Waveform

func (f inputFlags) String() string { return "name=spec" }

func (f inputFlags) Set(arg string) error {
	name, spec, ok := strings.Cut(arg, "=")
	if !ok {
		return fmt.Errorf("input must be name=spec, got %q", arg)
	}
	w, err := vase.ParseWaveform(spec)
	if err != nil {
		return err
	}
	f[name] = w
	return nil
}

func main() {
	inputs := inputFlags{}
	flag.Var(inputs, "in", "input source: name=dc:V | name=sine:AMP,FREQ | name=step:V0,V1,T0 | name=ramp:SLOPE")
	tstop := flag.Float64("tstop", 1e-3, "simulation end time, s")
	tstep := flag.Float64("tstep", 1e-6, "integration step, s")
	level := flag.String("level", "vhif", "simulation level: vhif (behavioral), netlist (functional), circuit (MNA macromodels)")
	every := flag.Int("every", 50, "print every n-th sample")
	csvPath := flag.String("csv", "", "also write the full trace as CSV to this file")
	benchmark := flag.String("benchmark", "", "simulate a built-in benchmark")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline; an expired simulation prints the partial trace (0 = none)")
	maxSteps := flag.Int("max-steps", 0, "integration step budget of -level vhif and netlist; the trace is truncated on exhaustion (0 = unlimited)")
	cache := cliopt.CacheFlags("compile and synthesis artifacts")
	solverStats := flag.Bool("stats", false, "print linear-solver statistics to stderr on exit (circuit level only)")
	solver := vase.SolverExact
	flag.Var(solveropt.Flag{Mode: &solver}, "solver", solveropt.Usage)
	reltol := flag.Float64("reltol", 0, "fast-tier relative error budget vs the reference solver (0 = default)")
	abstol := flag.Float64("abstol", 0, "fast-tier absolute error budget in volts (0 = default)")
	checkAsserts := flag.Bool("assert", false, "evaluate the source's '-- assert:' pragmas against the trace; FAIL exits nonzero (truncated traces resolve to UNKNOWN)")
	flag.Parse()
	if *every < 1 {
		usage(fmt.Errorf("-every must be >= 1, got %d", *every))
	}
	if *maxSteps < 0 {
		usage(fmt.Errorf("-max-steps must be >= 0 (0 = unlimited), got %d", *maxSteps))
	}
	if *maxSteps > 0 && *level == "circuit" {
		usage(fmt.Errorf("-max-steps bounds -level vhif and netlist only; bound -level circuit with -timeout"))
	}

	pipe, report, err := cache.Open()
	if err != nil {
		fail(err)
	}
	defer report()
	ctx, cancel := cliopt.Context(*timeout)
	defer cancel()

	src, err := cliopt.LoadSource("vasesim", *benchmark, flag.Args())
	if err != nil {
		usage(err)
	}
	var asserts []*assertlang.Assertion
	if *checkAsserts {
		asserts, err = assertlang.FromSource(src.Text)
		if err != nil {
			fail(err)
		}
		if len(asserts) == 0 {
			fmt.Fprintln(os.Stderr, "note: -assert set but the source has no '-- assert:' pragmas")
		}
	}
	d, err := vase.Compile(ctx, pipe, src)
	if err != nil {
		cliopt.FailSource(err, src)
	}

	// Static verdicts first: a proved assertion holds for every input
	// waveform, so its runtime monitor is pure overhead and is skipped. A
	// refuted or undecided assertion keeps its monitor — the run supplies
	// the concrete witness (or stays undecided).
	monitored := asserts
	if len(asserts) > 0 {
		ranges, err := d.Ranges(ctx)
		if err != nil {
			cliopt.FailSource(err, src)
		}
		monitored = monitored[:0:0]
		proved := 0
		for _, p := range ranges.CheckAll(asserts) {
			fmt.Fprintf(os.Stderr, "assert: static %s: %s", strings.ToUpper(p.Verdict.String()), p.Assertion.Text)
			if p.Reason != "" {
				fmt.Fprintf(os.Stderr, " (%s)", p.Reason)
			}
			fmt.Fprintln(os.Stderr)
			if p.Verdict == vase.StaticProve {
				proved++
				continue
			}
			monitored = append(monitored, p.Assertion)
		}
		if proved > 0 {
			fmt.Fprintf(os.Stderr, "note: %d assertion(s) statically proved — monitors skipped\n", proved)
		}
	}

	opts := vase.SimOptions{TStop: *tstop, TStep: *tstep, MaxSteps: *maxSteps}

	writeCSV := func(tr *vase.Trace) {
		if *csvPath == "" {
			return
		}
		f, err := os.Create(*csvPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := tr.WriteCSV(f); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}

	var outcomes []assertlang.Outcome
	switch *level {
	case "vhif":
		tr, err := d.Simulate(ctx, inputs, opts)
		if err != nil {
			fail(err)
		}
		printTrace(tr, *every)
		writeCSV(tr)
		noteTruncated(tr.Truncated)
		outcomes = assertlang.CheckTrace(monitored, tr)
	case "netlist":
		arch, err := d.Synthesize(ctx, vase.DefaultSynthesisOptions())
		if err != nil {
			fail(err)
		}
		tr, err := arch.Simulate(ctx, inputs, opts)
		if err != nil {
			fail(err)
		}
		printTrace(tr, *every)
		writeCSV(tr)
		noteTruncated(tr.Truncated)
		outcomes = assertlang.CheckTrace(monitored, tr)
	case "circuit":
		arch, err := d.Synthesize(ctx, vase.DefaultSynthesisOptions())
		if err != nil {
			fail(err)
		}
		arch.SimSolver = solver
		arch.SimBudget = vase.ErrorBudget{RelTol: *reltol, AbsTol: *abstol}
		res, err := arch.Spice(ctx, inputs, *tstop, *tstep)
		if err != nil {
			fail(err)
		}
		printSpice(d, res, *every)
		if *solverStats {
			fmt.Fprintln(os.Stderr, "solver:", res.Stats)
		}
		noteTruncated(res.Tran.Truncated)
		outcomes = assertlang.CheckTran(monitored, res.Elab, res.Tran)
		if solver == vase.SolverFast && (assertlang.Failed(outcomes) || countUnknown(outcomes) > 0) {
			// A FAIL or UNKNOWN within budget noise of a threshold must not
			// stand on fast-tier evidence: re-derive the verdicts of record
			// on the exact tier (see DESIGN.md §16).
			fmt.Fprintln(os.Stderr, "note: fast-tier assert verdicts not clean — re-checking on the exact tier")
			arch.SimSolver = vase.SolverExact
			res, err = arch.Spice(ctx, inputs, *tstop, *tstep)
			if err != nil {
				fail(err)
			}
			outcomes = assertlang.CheckTran(monitored, res.Elab, res.Tran)
		}
	default:
		usage(fmt.Errorf("unknown level %q", *level))
	}
	if *solverStats && *level != "circuit" {
		fmt.Fprintln(os.Stderr, "note: -stats applies to -level circuit only")
	}
	for _, o := range outcomes {
		fmt.Fprintln(os.Stderr, "assert:", o)
	}
	if assertlang.Failed(outcomes) {
		fail(fmt.Errorf("%d assertion(s) failed", countFails(outcomes)))
	}
	if n := countUnknown(outcomes); n > 0 {
		// Distinct from both success (0) and failure (1): the run decided
		// nothing either way for these assertions.
		fmt.Fprintf(os.Stderr, "vasesim: %d assertion(s) undecided (UNKNOWN)\n", n)
		os.Exit(exitcode.Unknown)
	}
}

func countUnknown(outs []assertlang.Outcome) int {
	n := 0
	for _, o := range outs {
		if o.Verdict == assertlang.Unknown {
			n++
		}
	}
	return n
}

func countFails(outs []assertlang.Outcome) int {
	n := 0
	for _, o := range outs {
		if o.Verdict == assertlang.Fail {
			n++
		}
	}
	return n
}

// noteTruncated flags a deadlined or budget-bound trace on stderr so a
// partial result is never mistaken for a full run.
func noteTruncated(truncated bool) {
	if truncated {
		fmt.Fprintln(os.Stderr, "note: simulation budget expired — trace is truncated")
	}
}

func printTrace(tr *vase.Trace, every int) {
	var names []string
	for name := range tr.Signals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-12s", "t")
	for _, n := range names {
		fmt.Printf(" %12s", n)
	}
	fmt.Println()
	for i := range tr.Time {
		if i%every != 0 {
			continue
		}
		fmt.Printf("%-12.6g", tr.Time[i])
		for _, n := range names {
			fmt.Printf(" %12.6g", tr.Signals[n][i])
		}
		fmt.Println()
	}
}

func printSpice(d *vase.Design, res *vase.SpiceResult, every int) {
	// Print the output ports.
	var names []string
	for _, p := range d.VHIF.Ports {
		names = append(names, p.Name)
	}
	fmt.Printf("%-12s", "t")
	cols := map[string][]float64{}
	for _, n := range names {
		if w := res.V(n); w != nil {
			cols[n] = w
			fmt.Printf(" %12s", n)
		}
	}
	fmt.Println()
	times := res.Time()
	for i := range times {
		if i%every != 0 {
			continue
		}
		fmt.Printf("%-12.6g", times[i])
		for _, n := range names {
			if w, ok := cols[n]; ok {
				fmt.Printf(" %12.6g", w[i])
			}
		}
		fmt.Println()
	}
}

func fail(err error) {
	exitcode.Fail("vasesim", exitcode.Error, err)
}

func usage(err error) {
	exitcode.Fail("vasesim", exitcode.Usage, err)
}
