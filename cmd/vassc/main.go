// Command vassc compiles VASS (VHDL-AMS subset for synthesis) sources into
// VHIF, the VASE intermediate representation, and prints it.
//
// Usage:
//
//	vassc [-metrics] [-alternatives n] [-lint] [-Werror] file.vhd
//	vassc -benchmark receiver
package main

import (
	"flag"
	"fmt"
	"os"

	"vase"
	"vase/internal/cliopt"
	"vase/internal/exitcode"
)

func main() {
	metrics := flag.Bool("metrics", false, "print the Table 1 specification/VHIF metrics")
	alts := flag.Int("alternatives", 0, "compile up to n alternative DAE solver topologies (0 = primary only)")
	benchmark := flag.String("benchmark", "", "compile a built-in benchmark (receiver, powermeter, missile, itersolver, funcgen)")
	lintFlag := flag.Bool("lint", false, "run the synthesizability linter before compiling")
	werror := flag.Bool("Werror", false, "with -lint, treat warnings as errors")
	timeout := flag.Duration("timeout", 0, "deadline for compiling and linting (0 = none)")
	cache := cliopt.CacheFlags("compile artifacts")
	flag.Parse()

	pipe, report, err := cache.Open()
	if err != nil {
		fail(err)
	}
	defer report()
	ctx, cancel := cliopt.Context(*timeout)
	defer cancel()

	src, err := cliopt.LoadSource("vassc", *benchmark, flag.Args())
	if err != nil {
		usage(err)
	}

	if *lintFlag || *werror {
		findings, err := vase.Lint(ctx, pipe, src, vase.LintOptions{})
		if err != nil {
			fail(err)
		}
		if !cliopt.ReportFindings(findings, src, *werror) {
			os.Exit(exitcode.Error)
		}
	}

	if *alts > 0 {
		mods, err := vase.CompileAlternatives(ctx, pipe, src, *alts)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%d feasible solver topolog%s\n\n", len(mods), plural(len(mods), "y", "ies"))
		for i, m := range mods {
			fmt.Printf("--- topology %d ---\n%s\n", i+1, m.Dump())
		}
		return
	}

	d, err := vase.Compile(ctx, pipe, src)
	if err != nil {
		cliopt.FailSource(err, src)
	}
	fmt.Print(d.VHIF.Dump())
	if *metrics {
		r := d.Metrics()
		fmt.Printf("\nmetrics: %d continuous-time lines, %d quantities, %d event-driven lines, %d signals\n",
			r.ContinuousLines, r.Quantities, r.EventLines, r.Signals)
		fmt.Printf("VHIF: %d blocks, %d states, %d data-path elements\n", r.Blocks, r.States, r.Datapath)
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func fail(err error) {
	exitcode.Fail("vassc", exitcode.Error, err)
}

func usage(err error) {
	exitcode.Fail("vassc", exitcode.Usage, err)
}
