// Funcgen: the ramp-signal (function) generator (Table 1, row 5). An
// integrator with a multiplexed slope and a Schmitt trigger form a
// relaxation oscillator; the example shows the synthesized "1 integ.,
// 1 MUX, 1 Schmitt trigger" architecture and its triangle-wave output.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"vase"
)

func main() {
	ctx := context.Background()
	app, err := vase.Benchmark("funcgen")
	if err != nil {
		log.Fatal(err)
	}
	design, err := vase.Compile(ctx, nil, vase.Source{Name: "funcgen.vhd", Text: app.Source})
	if err != nil {
		log.Fatal(err)
	}
	arch, err := design.Synthesize(ctx, vase.DefaultSynthesisOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesis: %s\n\n", arch.Netlist.Summary())

	tr, err := design.Simulate(ctx, map[string]vase.Waveform{},
		vase.SimOptions{TStop: 8e-3, TStep: 1e-6})
	if err != nil {
		log.Fatal(err)
	}
	wave := tr.Get("wave")
	fmt.Printf("triangle wave: min %.3f V, max %.3f V (Schmitt thresholds at +-1 V)\n\n",
		tr.Min("wave"), tr.Max("wave"))

	// ASCII plot of the oscillation.
	const width, height = 72, 15
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for x := 0; x < width; x++ {
		v := wave[x*(len(wave)-1)/(width-1)]
		y := int((1 - (v+1.3)/2.6) * float64(height-1))
		if y < 0 {
			y = 0
		}
		if y >= height {
			y = height - 1
		}
		grid[y][x] = '*'
	}
	for _, row := range grid {
		fmt.Println(string(row))
	}
}
