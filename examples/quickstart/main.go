// Quickstart: synthesize a two-input weighted amplifier from a VASS
// specification and inspect every stage of the VASE flow — the VHIF
// intermediate representation, the synthesized op-amp netlist, its area
// estimate, and a behavioral simulation.
package main

import (
	"context"
	"fmt"
	"log"

	"vase"
)

const src = `
entity mixer is
  port (
    quantity mic   : in real is voltage;
    quantity aux   : in real is voltage;
    quantity mixed : out real is voltage drives 10 kohm
  );
end entity;

architecture behavior of mixer is
  constant gmic : real := 8.0;
  constant gaux : real := 2.0;
begin
  mixed == gmic * mic + gaux * aux;
end architecture;
`

func main() {
	ctx := context.Background()

	// 1. Compile VASS -> VHIF.
	design, err := vase.Compile(ctx, nil, vase.Source{Name: "mixer.vhd", Text: src})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== VHIF intermediate representation ==")
	fmt.Print(design.VHIF.Dump())

	// 2. Synthesize VHIF -> op-amp netlist (branch and bound, minimum area).
	arch, err := design.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== synthesized architecture ==")
	fmt.Print(arch.Netlist.Dump())
	fmt.Printf("\nresult: %s — %d op amp(s), %.0f um^2, %.2f mW\n",
		arch.Netlist.Summary(), arch.Netlist.OpAmpCount(),
		arch.Report.AreaUm2, arch.Report.PowerMW)

	// 3. Verify: behavioral simulation of the compiled design.
	tr, err := design.Simulate(ctx, map[string]vase.Waveform{
		"mic": vase.DC(0.05),
		"aux": vase.DC(0.1),
	}, vase.SimOptions{TStop: 1e-3, TStep: 1e-6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated mixed output: %.3f V (expected 8*0.05 + 2*0.1 = 0.6)\n",
		tr.Final("mixed"))
}
