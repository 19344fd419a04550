// Command vase runs the full behavioral synthesis flow: VASS specification
// -> VHIF -> op-amp-level component netlist, with area/performance
// estimation and optional SPICE deck export.
//
// Usage:
//
//	vase [-vhif] [-tree] [-spice] [-area] [-lint] [-Werror] file.vhd
//	vase -benchmark receiver -area
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"vase"
	"vase/internal/cliopt"
	"vase/internal/exitcode"
)

func main() {
	showVHIF := flag.Bool("vhif", false, "also print the VHIF intermediate representation")
	showTree := flag.Bool("tree", false, "print the branch-and-bound decision tree")
	spice := flag.Bool("spice", false, "print a SPICE deck of the op-amp macromodel expansion")
	area := flag.Bool("area", false, "print the per-component area report")
	sizing := flag.Bool("sizing", false, "print the transistor sizing report")
	fromVHIF := flag.Bool("from-vhif", false, "the input file is serialized VHIF, not VASS")
	benchmark := flag.String("benchmark", "", "synthesize a built-in benchmark")
	workers := flag.Int("workers", 0, "parallel search workers (0 = all CPUs, 1 = sequential)")
	lintFlag := flag.Bool("lint", false, "run the synthesizability linter before synthesis")
	werror := flag.Bool("Werror", false, "with -lint, treat warnings as errors")
	timeout := flag.Duration("timeout", 0, "deadline for the search; on expiry the best netlist found so far is printed (0 = none)")
	maxSteps := flag.Int("max-steps", 0, "search node budget; on exhaustion the best netlist so far is printed (0 = unlimited)")
	cache := cliopt.CacheFlags("compile and synthesis artifacts")
	flag.Parse()

	opts := vase.DefaultSynthesisOptions()
	opts.Trace = *showTree
	opts.Workers = *workers
	opts.MaxNodes = *maxSteps

	pipe, report, err := cache.Open()
	if err != nil {
		fail(err)
	}
	defer report()
	ctx, cancel := cliopt.Context(*timeout)
	defer cancel()

	var arch *vase.Architecture
	if *fromVHIF {
		if len(flag.Args()) != 1 {
			usage(fmt.Errorf("usage: vase -from-vhif file.vhif"))
		}
		text, err := os.ReadFile(flag.Args()[0])
		if err != nil {
			usage(err)
		}
		m, err := vase.ParseVHIF(string(text))
		if err != nil {
			fail(err)
		}
		if *lintFlag || *werror {
			findings, err := vase.LintVHIF(context.Background(), pipe, flag.Args()[0], string(text), vase.LintOptions{})
			if err != nil {
				cliopt.FailSource(err, vase.Source{Name: flag.Args()[0], Text: string(text)})
			}
			if !cliopt.ReportFindings(findings, vase.Source{Name: flag.Args()[0], Text: string(text)}, *werror) {
				os.Exit(exitcode.Error)
			}
		}
		if *showVHIF {
			fmt.Print(m.Dump())
			fmt.Println()
		}
		arch, err = vase.SynthesizeModule(ctx, pipe, m, opts)
		if err != nil {
			fail(err)
		}
	} else {
		src, err := cliopt.LoadSource("vase", *benchmark, flag.Args())
		if err != nil {
			usage(err)
		}
		if *lintFlag || *werror {
			findings, err := vase.Lint(context.Background(), pipe, src, vase.LintOptions{})
			if err != nil {
				cliopt.FailSource(err, src)
			}
			if !cliopt.ReportFindings(findings, src, *werror) {
				os.Exit(exitcode.Error)
			}
		}
		d, err := vase.Compile(context.Background(), pipe, src)
		if err != nil {
			cliopt.FailSource(err, src)
		}
		if *showVHIF {
			fmt.Print(d.VHIF.Dump())
			fmt.Println()
		}
		arch, err = d.Synthesize(ctx, opts)
		if err != nil {
			fail(err)
		}
	}
	fmt.Print(arch.Netlist.Dump())
	fmt.Printf("\nsynthesis result: %s\n", arch.Netlist.Summary())
	fmt.Printf("op amps: %d, estimated area: %.0f um^2, power: %.2f mW\n",
		arch.Netlist.OpAmpCount(), arch.Report.AreaUm2, arch.Report.PowerMW)
	fmt.Printf("search: %d nodes visited, %d complete mappings, %d pruned (%.1f ms)\n",
		arch.Stats.NodesVisited, arch.Stats.CompleteMappings, arch.Stats.Pruned,
		float64(arch.Stats.Elapsed)/float64(time.Millisecond))
	if arch.Nonoptimal {
		fmt.Println("note: search budget expired — this is the best implementation found, not a proven optimum")
	}
	if arch.Cached {
		fmt.Println("note: netlist served from the synthesis cache (search stats describe the original run)")
	}

	if *area {
		fmt.Println("\nper-component area (um^2):")
		for name, a := range arch.Report.PerComponent {
			fmt.Printf("  %-24s %10.0f\n", name, a)
		}
	}
	if *sizing {
		sized, err := arch.Sizing()
		if err != nil {
			fail(err)
		}
		fmt.Println()
		fmt.Print(vase.FormatSizing(sized))
	}
	if *showTree {
		fmt.Println("\ndecision tree:")
		fmt.Print(formatTree(arch))
	}
	if *spice {
		deck, err := arch.SpiceDeck()
		if err != nil {
			fail(err)
		}
		fmt.Println("\nSPICE deck:")
		fmt.Print(deck)
	}
}

func formatTree(arch *vase.Architecture) string {
	if arch.Tree == nil {
		return "(no tree recorded)\n"
	}
	return vase.FormatDecisionTree(arch.Tree)
}

func fail(err error) {
	exitcode.Fail("vase", exitcode.Error, err)
}

func usage(err error) {
	exitcode.Fail("vase", exitcode.Usage, err)
}
