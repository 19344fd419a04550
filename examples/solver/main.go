// Solver: the two equation-solver benchmarks (Table 1, rows 3 and 4). The
// missile solver integrates a flight model with a log/antilog drag chain;
// the iterative solver converges on a fixed point and latches it with a
// sample-and-hold when the convergence detector fires.
package main

import (
	"context"
	"fmt"
	"log"

	"vase"
)

func main() {
	missile()
	fmt.Println()
	iterative()
}

func missile() {
	ctx := context.Background()
	app, err := vase.Benchmark("missile")
	if err != nil {
		log.Fatal(err)
	}
	design, err := vase.Compile(ctx, nil, vase.Source{Name: "missile.vhd", Text: app.Source})
	if err != nil {
		log.Fatal(err)
	}
	arch, err := design.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== missile solver ==")
	fmt.Printf("13 VHIF blocks reduce to: %s (%d op amps)\n",
		arch.Netlist.Summary(), arch.Netlist.OpAmpCount())

	// Step command: velocity settles where thrust balances drag + damping.
	tr, err := design.Simulate(ctx, map[string]vase.Waveform{
		"cmd":  vase.StepAt(0, 1.0, 0.1),
		"wind": vase.DC(0),
		"bias": vase.DC(0),
	}, vase.SimOptions{TStop: 8, TStep: 1e-3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  t [s]    acc       vel->dist")
	for i := 0; i < len(tr.Time); i += 1000 {
		fmt.Printf("  %5.2f   %+7.4f   %+8.4f\n", tr.Time[i], tr.Get("acc")[i], tr.Get("dist")[i])
	}
	fmt.Printf("steady acceleration: %.4f (drag balances command)\n", tr.Final("acc"))
}

func iterative() {
	ctx := context.Background()
	app, err := vase.Benchmark("itersolver")
	if err != nil {
		log.Fatal(err)
	}
	design, err := vase.Compile(ctx, nil, vase.Source{Name: "itersolver.vhd", Text: app.Source})
	if err != nil {
		log.Fatal(err)
	}
	arch, err := design.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== iterative equation solver ==")
	fmt.Printf("architecture: %s\n", arch.Netlist.Summary())

	tr, err := design.Simulate(ctx, map[string]vase.Waveform{},
		vase.SimOptions{TStop: 20, TStep: 1e-3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  t [s]    x         conv")
	for i := 0; i < len(tr.Time); i += 2500 {
		fmt.Printf("  %5.1f   %+7.4f   %4.0f\n", tr.Time[i], tr.Get("x")[i], tr.Get("conv")[i])
	}
	fmt.Printf("solution x(t->inf): %.4f; convergence flag: %v\n",
		tr.Final("x"), tr.Final("conv") > 0.5)
}
