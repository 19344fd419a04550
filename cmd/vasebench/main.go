// Command vasebench regenerates the evaluation artifacts of the DATE'99
// paper: Table 1 (the five benchmark applications) and Figures 3, 4, 6, 7
// and 8.
//
// Usage:
//
//	vasebench            # everything
//	vasebench -table1
//	vasebench -fig8
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"vase/internal/cliopt"
	"vase/internal/corpus"
	"vase/internal/diag"
	"vase/internal/exitcode"
	"vase/internal/mapper"
	"vase/internal/mna"
	"vase/internal/solveropt"
	"vase/internal/source"
)

func main() {
	table1 := flag.Bool("table1", false, "reproduce Table 1")
	fig3 := flag.Bool("fig3", false, "reproduce Figure 3 (VASS to VHIF translation)")
	fig4 := flag.Bool("fig4", false, "reproduce Figure 4 (while-loop translation)")
	fig6 := flag.Bool("fig6", false, "reproduce Figure 6 (branch-and-bound decision tree)")
	fig7 := flag.Bool("fig7", false, "reproduce Figure 7 (receiver synthesis)")
	fig8 := flag.Bool("fig8", false, "reproduce Figure 8 (receiver circuit simulation)")
	workers := flag.Int("workers", 0, "parallel search workers for Table 1 (0 = all CPUs, 1 = sequential)")
	timeout := flag.Duration("timeout", 0, "shared deadline for the Table 1 searches; expired entries use the best netlist found so far (0 = none)")
	maxSteps := flag.Int("max-steps", 0, "per-application search node budget for Table 1 (0 = unlimited)")
	cache := cliopt.CacheFlags("compile and synthesis artifacts")
	solver := mna.SolverAuto
	flag.Var(solveropt.Flag{Mode: &solver}, "solver", solveropt.Usage+" (affects Figure 8)")
	flag.Parse()

	pipe, report, err := cache.Open()
	if err != nil {
		fail(err)
	}
	defer report()

	all := !*table1 && !*fig3 && !*fig4 && !*fig6 && !*fig7 && !*fig8

	if *table1 || all {
		section("Table 1 — behavioral synthesis results for 5 real-life applications")
		opts := mapper.DefaultOptions()
		opts.Workers = *workers
		opts.MaxNodes = *maxSteps
		ctx, cancel := cliopt.Context(*timeout)
		defer cancel()
		builds, err := corpus.BuildAll(ctx, pipe, opts)
		if err != nil {
			fail(err)
		}
		fmt.Print(corpus.Table1(builds))
		for _, b := range builds {
			if b.Result.Nonoptimal {
				fmt.Printf("note: %s search budget expired after %d nodes — result is the best incumbent, not a proven optimum\n",
					b.App.Key, b.Result.Stats.NodesVisited)
			}
		}
	}
	if *fig3 || all {
		section("Figure 3")
		_, text, err := corpus.Figure3()
		if err != nil {
			fail(err)
		}
		fmt.Print(text)
	}
	if *fig4 || all {
		section("Figure 4")
		_, text, err := corpus.Figure4()
		if err != nil {
			fail(err)
		}
		fmt.Print(text)
	}
	if *fig6 || all {
		section("Figure 6")
		_, text, err := corpus.Figure6()
		if err != nil {
			fail(err)
		}
		fmt.Print(text)
	}
	if *fig7 || all {
		section("Figure 7")
		text, err := corpus.Figure7()
		if err != nil {
			fail(err)
		}
		fmt.Print(text)
	}
	if *fig8 || all {
		section("Figure 8")
		_, text, err := corpus.Figure8(corpus.SpiceConfig{Solver: solver})
		if err != nil {
			fail(err)
		}
		fmt.Print(text)
	}
}

func section(title string) {
	fmt.Printf("\n==== %s ====\n\n", title)
}

// fail renders diagnostics with source excerpts and caret markers — every
// benchmark source is built in, so each finding's excerpt resolves from the
// corpus by file name. Non-diagnostic errors print plainly.
func fail(err error) {
	var dl diag.List
	if errors.As(err, &dl) {
		files := map[string]*source.File{}
		for _, app := range corpus.Applications() {
			name := app.Key + ".vhd"
			files[name] = source.NewFile(name, app.Source)
		}
		fmt.Fprint(os.Stderr, dl.RenderFiles(func(name string) *source.File { return files[name] }))
		os.Exit(exitcode.Error)
	}
	exitcode.Fail("vasebench", exitcode.Error, err)
}
