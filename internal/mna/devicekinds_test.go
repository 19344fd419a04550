package mna_test

import (
	"context"
	"testing"

	"vase/internal/corpus"
	"vase/internal/gen"
	"vase/internal/mapper"
	"vase/internal/mna"
	"vase/internal/netlist"
)

// TestElaborateBuildsEveryDeviceKind keeps the core to the devices the
// elaborator needs: Elaborate must build every device kind on the five
// Table 1 applications and the circuit digest's ladder specs (seed 1,
// mapped under the simulate benchmark's search policy), so a kind that only
// tests construct cannot return. The test is external to package mna
// because internal/corpus imports it.
func TestElaborateBuildsEveryDeviceKind(t *testing.T) {
	built := make([]int, mna.NumDeviceKinds)
	count := func(name string, nl *netlist.Netlist) {
		waves := map[string]mna.Waveform{}
		for _, p := range nl.Ports {
			if p.Dir == netlist.In {
				waves[p.Name] = func(float64) float64 { return 0 }
			}
		}
		el, err := mna.Elaborate(nl, waves)
		if err != nil {
			t.Fatalf("%s: elaborate: %v", name, err)
		}
		for k, n := range mna.DeviceKindCounts(el.Circuit) {
			built[k] += n
		}
	}
	for _, app := range corpus.Applications() {
		b, err := corpus.BuildApp(context.Background(), nil, app, mapper.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		count(app.Key, b.Result.Netlist)
	}
	for _, i := range []int{0, 1, 2, 3, 4, 6, 7, 9, 12, 14} {
		sp := gen.Generate(1, i, gen.MixedSize(i))
		m, err := gen.CompileSpec(sp)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		opts := mapper.DefaultOptions()
		opts.MaxNodes = 1 << 15
		opts.FirstFit = sp.Quants() > 12
		res, err := mapper.Synthesize(m, opts)
		if err != nil {
			t.Fatalf("spec %d: synthesize: %v", i, err)
		}
		count(sp.Name, res.Netlist)
	}
	for k, n := range built {
		if n == 0 {
			t.Errorf("device kind %d: Elaborate built none; delete the kind or the elaborator path it lost", k)
		}
	}
	t.Logf("devices built per kind: %v", built)
}
