// Filterinfer: annotation-driven filter inference (paper Section 3: specify
// frequency ranges along the signal path "and let the synthesis tool infer
// an appropriate filter type"). The same behavioral specification gets a
// low-pass or a band-pass output stage purely from its port annotation.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"vase"
)

const lowpassSrc = `
entity sensor_if is
  port (
    quantity vin  : in real is voltage;
    quantity vout : out real is voltage is frequency 0 to 1000.0
  );
end entity;
architecture a of sensor_if is
begin
  vout == 5.0 * vin;
end architecture;
`

const bandpassSrc = `
entity tone_pick is
  port (
    quantity vin  : in real is voltage;
    quantity vout : out real is voltage is frequency 500.0 to 2000.0
  );
end entity;
architecture a of tone_pick is
begin
  vout == vin;
end architecture;
`

func main() {
	run("low-pass inference (frequency 0 to 1 kHz)", lowpassSrc, []float64{100, 20e3})
	fmt.Println()
	run("band-pass inference (frequency 500 to 2000 Hz)", bandpassSrc, []float64{20, 1000, 50e3})
}

func run(title, src string, probeFreqs []float64) {
	fmt.Println("==", title, "==")
	ctx := context.Background()
	design, err := vase.Compile(ctx, nil, vase.Source{Name: "f.vhd", Text: src})
	if err != nil {
		log.Fatal(err)
	}
	arch, err := design.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesis: %s\n", arch.Netlist.Summary())

	for _, f := range probeFreqs {
		tr, err := design.Simulate(ctx, map[string]vase.Waveform{
			"vin": vase.Sine(1, f, 0),
		}, vase.SimOptions{TStop: 12 / f, TStep: math.Min(1e-6, 0.01/f)})
		if err != nil {
			log.Fatal(err)
		}
		out := tr.Get("vout")
		peak := 0.0
		for _, v := range out[len(out)/2:] {
			peak = math.Max(peak, math.Abs(v))
		}
		fmt.Printf("  %8.0f Hz -> output peak %.3f\n", f, peak)
	}
}
