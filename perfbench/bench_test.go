package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func loadAll(t *testing.T) (*goldens, map[string]refTrace) {
	t.Helper()
	g, err := loadGoldens(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := loadReferences(referenceFile)
	if err != nil {
		t.Fatal(err)
	}
	return g, refs
}

func runTiny(t *testing.T, name string, trace bool, g *goldens, refs map[string]refTrace) *runResult {
	t.Helper()
	w, err := buildWorkload(name, tinyScale, g, refs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runWorkload(w, config{workload: name, seed: 7, trace: trace, scale: tinyScale})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestEveryMetricPrinted runs each workload at the tiny scale, untraced
// and traced, and checks that every metric BENCHMARK.json names comes out
// with its unit, the op lists are identical in both modes, and every op
// matches its golden.
func TestEveryMetricPrinted(t *testing.T) {
	bf := readBenchmarkFile(t)
	g, refs := loadAll(t)
	for _, wl := range bf.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			plain := runTiny(t, wl.Name, false, g, refs)
			traced := runTiny(t, wl.Name, true, g, refs)
			for _, r := range []*runResult{plain, traced} {
				if r.Failed != 0 {
					t.Errorf("trace=%v: %d of %d ops failed: %v", r.Trace, r.Failed, r.Attempted, r.Failures)
				}
			}
			check := func(ms []metric, want []struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			}) {
				got := map[string]string{}
				for _, m := range ms {
					got[m.Name] = m.Unit
				}
				for _, w := range want {
					if unit, ok := got[w.Name]; !ok || unit != w.Unit {
						t.Errorf("metric %s: unit %q (printed %v), BENCHMARK.json says %q", w.Name, unit, ok, w.Unit)
					}
				}
			}
			check(endToEnd(plain), bf.EndToEnd)
			check(perLayer(traced), bf.PerLayer)
			if !reflect.DeepEqual(plain.OpKeys, traced.OpKeys) || !reflect.DeepEqual(plain.OpKeys, traced.TracedKeys) {
				t.Errorf("op lists differ:\nuntraced %v\ntraced   %v\ntraced pass %v", plain.OpKeys, traced.OpKeys, traced.TracedKeys)
			}
		})
	}
}

// TestMetricNamesMatchBenchmarkFile keeps the code's metric lists and
// BENCHMARK.json in the same order.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var e2e, layers []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("end_to_end %v, code %v", e2e, endToEndNames)
	}
	if !reflect.DeepEqual(layers, perLayerNames) {
		t.Errorf("per_layer %v, code %v", layers, perLayerNames)
	}
}

// TestCorruptGoldenFails corrupts one golden per workload and expects the
// run to report failed ops.
func TestCorruptGoldenFails(t *testing.T) {
	cases := map[string]func(g *goldens){
		"synth": func(g *goldens) {
			d := g.Designs["gen/1"]
			d.Netlist = "corrupt"
			g.Designs["gen/1"] = d
		},
		"simulate": func(g *goldens) {
			c := g.Circuits["gen/4"]
			c.Reference.Tran = "corrupt"
			g.Circuits["gen/4"] = c
		},
		"serve": func(g *goldens) {
			r := g.Serve["gen/0/lint"]
			r.Body = "corrupt"
			g.Serve["gen/0/lint"] = r
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			g, refs := loadAll(t)
			corrupt(g)
			r := runTiny(t, name, false, g, refs)
			if r.Failed == 0 {
				t.Fatalf("a corrupted golden left error_rate at 0 (%d ops)", r.Attempted)
			}
		})
	}
}

// TestDesignMismatch checks the two ways a synthesized architecture is
// held to its golden: byte for byte where the golden is a proven optimum,
// and by validity, op amps and area where the search order picked it.
func TestDesignMismatch(t *testing.T) {
	g, _ := loadAll(t)
	proven, capped, firstFit := ladderDesign(0), ladderDesign(5), ladderDesign(3)
	if g.Designs[proven.Key].Nonoptimal || !g.Designs[capped.Key].Nonoptimal || !searchOptions(firstFit).FirstFit {
		t.Fatal("ladder specs 0, 5 and 3 are no longer proven, capped and first-fit")
	}
	other := func(d *design, edit func(*designObs)) designObs {
		o := g.Designs[d.Key]
		o.Netlist = "another netlist"
		edit(&o)
		return o
	}
	cases := []struct {
		name string
		d    *design
		got  designObs
		ok   bool
	}{
		{"proven, same", proven, g.Designs[proven.Key], true},
		{"proven, another netlist", proven, other(proven, func(*designObs) {}), false},
		{"capped, another netlist", capped, other(capped, func(*designObs) {}), true},
		{"capped, search now finishes", capped, other(capped, func(o *designObs) { o.Nonoptimal = false; o.AreaUm2 *= 0.9 }), true},
		{"capped, one more op amp", capped, other(capped, func(o *designObs) { o.OpAmps++ }), false},
		{"first-fit, more area", firstFit, other(firstFit, func(o *designObs) { o.AreaUm2 *= 1.01 }), false},
		{"first-fit, invalid netlist", firstFit, other(firstFit, func(o *designObs) { o.Err = "netlist: loop" }), false},
	}
	for _, c := range cases {
		if m := designMismatch(c.d, c.got, g.Designs[c.d.Key]); (m == "") != c.ok {
			t.Errorf("%s: mismatch %q, want ok=%v", c.name, m, c.ok)
		}
	}
}

// TestQuantileMatchesPython pins the quartile definition to Python's
// statistics.quantiles(values, n=4), which the acceptance check uses.
func TestQuantileMatchesPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
}
