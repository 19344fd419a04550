// Receiver: the paper's end-to-end experiment (Figures 2, 7 and 8). The
// telephone receiver module is compiled from its VASS specification,
// synthesized to an op-amp netlist, and simulated at circuit level with a
// deliberately high-amplitude input to expose the 1.5 V output limiting.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"vase"
)

func main() {
	ctx := context.Background()
	app, err := vase.Benchmark("receiver")
	if err != nil {
		log.Fatal(err)
	}
	design, err := vase.Compile(ctx, nil, vase.Source{Name: "receiver.vhd", Text: app.Source})
	if err != nil {
		log.Fatal(err)
	}

	m := design.Metrics()
	fmt.Printf("Table 1 row: %d cont. lines, %d quantities, %d event lines, %d signals | %d blocks, %d states, %d datapath\n",
		m.ContinuousLines, m.Quantities, m.EventLines, m.Signals, m.Blocks, m.States, m.Datapath)

	arch, err := design.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesis: %s (%d op amps, %.0f um^2)\n\n",
		arch.Netlist.Summary(), arch.Netlist.OpAmpCount(), arch.Report.AreaUm2)

	// Small signal: gain switches with line level (automatic line-length
	// compensation).
	for _, level := range []float64{0.05, 0.2} {
		tr, err := design.Simulate(ctx, map[string]vase.Waveform{
			"line":  vase.DC(level),
			"local": vase.DC(0),
		}, vase.SimOptions{TStop: 1e-3, TStep: 1e-6})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("line=%.2f V -> earph=%.3f V (gain %.1f)\n",
			level, tr.Final("earph"), tr.Final("earph")/level)
	}

	// Figure 8: circuit-level transient with a 1.5 V peak 1 kHz input.
	res, err := arch.Spice(ctx, map[string]vase.Waveform{
		"line":  vase.Sine(1.5, 1e3, 0),
		"local": vase.DC(0),
	}, 3e-3, 1e-6)
	if err != nil {
		log.Fatal(err)
	}
	earph := res.V("earph")
	clipP, clipN := math.Inf(-1), math.Inf(1)
	for _, v := range earph {
		clipP = math.Max(clipP, v)
		clipN = math.Min(clipN, v)
	}
	fmt.Printf("\nFigure 8 (circuit level): earph clips at %+.3f V / %+.3f V (paper: +-1.5 V)\n", clipP, clipN)

	// Print a short waveform excerpt.
	fmt.Println("\n  t [ms]    line [V]   earph [V]")
	times := res.Time()
	line := res.V("line")
	for i := 0; i < len(times); i += 150 {
		fmt.Printf("  %6.3f   %+8.4f   %+8.4f\n", times[i]*1e3, line[i], earph[i])
	}
}
