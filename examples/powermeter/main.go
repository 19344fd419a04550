// Powermeter: the acquisition chain of the programmable power-meter ASIC
// (Table 1, row 2). Two line signals are sampled on zero crossings by
// inferred sample-and-hold stages and digitized by 8-bit converters; the
// example shows the mixed continuous/event behavior and the quantization of
// the outputs.
package main

import (
	"context"
	"fmt"
	"log"

	"vase"
)

func main() {
	ctx := context.Background()
	app, err := vase.Benchmark("powermeter")
	if err != nil {
		log.Fatal(err)
	}
	design, err := vase.Compile(ctx, nil, vase.Source{Name: "powermeter.vhd", Text: app.Source})
	if err != nil {
		log.Fatal(err)
	}
	arch, err := design.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesis: %s\n", arch.Netlist.Summary())
	fmt.Printf("op amps: %d, area: %.0f um^2\n\n", arch.Netlist.OpAmpCount(), arch.Report.AreaUm2)

	// Drive with a 50 Hz line: voltage and a lagging current.
	tr, err := design.Simulate(ctx, map[string]vase.Waveform{
		"vline": vase.Sine(1.0, 50, 0),
		"iline": vase.Sine(0.8, 50, -0.6),
	}, vase.SimOptions{TStop: 60e-3, TStep: 10e-6})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("  t [ms]   vline     vout(8-bit)   iline     iout(8-bit)")
	vline := vase.Sine(1.0, 50, 0)
	iline := vase.Sine(0.8, 50, -0.6)
	for i := 0; i < len(tr.Time); i += 400 {
		t := tr.Time[i]
		fmt.Printf("  %6.2f   %+7.4f   %+7.4f      %+7.4f   %+7.4f\n",
			t*1e3, vline(t), tr.Get("vout")[i], iline(t), tr.Get("iout")[i])
	}

	// The quantization step of an 8-bit converter over +-2.5 V is ~19.5 mV:
	// outputs land on the quantization grid.
	q := 2.5 / 128
	fmt.Printf("\n8-bit quantization step: %.4f V; final vout = %.4f V (a multiple of the step)\n",
		q, tr.Final("vout"))
}
