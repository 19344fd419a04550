package gen

import (
	"math"
	"testing"

	"vase/internal/mapper"
	"vase/internal/sim"
	"vase/internal/vhif"
)

// TestLevelsAgreeOnLadderSpecs checks the two behavioral levels against
// each other on generated specs: seed 1, indexes 0-159 (the first 32
// under -short), mapped under the benchmark ladder's search policy
// (first-fit above 12 quantities, a 1<<15 node cap). Every output
// quantity of the netlist trace must stay within 1e-9 of the module
// trace, relative to max(1, the module output's range).
func TestLevelsAgreeOnLadderSpecs(t *testing.T) {
	const bound = 1e-9
	n := 160
	if testing.Short() {
		n = 32
	}
	compared := 0
	for i := 0; i < n; i++ {
		sp := Generate(1, i, MixedSize(i))
		m, err := CompileSpec(sp)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		opts := searchOptions(sp)
		opts.MaxNodes = 1 << 15
		res, err := mapper.Synthesize(m, opts)
		if err != nil {
			t.Fatalf("spec %d: synthesize: %v", i, err)
		}
		window := sim.Options{TStop: sp.TStop, TStep: sp.TStep}
		trM, err := sim.SimulateModule(m, sp.Sources(), window)
		if err != nil {
			t.Fatalf("spec %d: module: %v", i, err)
		}
		trN, err := sim.SimulateNetlist(res.Netlist, sp.Sources(), window)
		if err != nil {
			t.Fatalf("spec %d: netlist: %v", i, err)
		}
		for _, p := range m.Ports {
			if p.Dir != vhif.DirOut || p.Kind != vhif.PortQuantity {
				continue
			}
			a, b := trM.Get(p.Name), trN.Get(p.Name)
			if len(a) == 0 || len(a) != len(b) {
				t.Errorf("spec %d: %s has %d module and %d netlist samples", i, p.Name, len(a), len(b))
				continue
			}
			compared++
			scale := math.Max(1, trM.Max(p.Name)-trM.Min(p.Name))
			for j := range a {
				if d := math.Abs(a[j] - b[j]); !(d <= bound*scale) {
					t.Errorf("spec %d: %s diverges at t=%g: module %g, netlist %g (%.3g of scale %g)",
						i, p.Name, trM.Time[j], a[j], b[j], d/scale, scale)
					break
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no output quantity compared")
	}
}
