package corpus

import (
	"context"
	"strings"
	"testing"

	"vase/internal/mapper"
)

// buildDefault builds one application through the default pipeline with
// the default synthesis options.
func buildDefault(app *Application) (*Build, error) {
	return BuildApp(context.Background(), nil, app, mapper.DefaultOptions())
}

// buildAllDefault builds every application through the default pipeline
// with the default synthesis options.
func buildAllDefault() ([]*Build, error) {
	return BuildAll(context.Background(), nil, mapper.DefaultOptions())
}

func TestAllApplicationsBuild(t *testing.T) {
	builds, err := buildAllDefault()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if len(builds) != 5 {
		t.Fatalf("applications = %d, want 5", len(builds))
	}
}

// TestTable1 checks every metric column of every row against the paper,
// allowing only the documented deviations.
func TestTable1(t *testing.T) {
	for _, app := range Applications() {
		app := app
		t.Run(app.Key, func(t *testing.T) {
			b, err := buildDefault(app)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			a, e := b.Actual, app.Expected
			if a.ContinuousLines != e.ContinuousLines {
				t.Errorf("continuous lines = %d, paper %d", a.ContinuousLines, e.ContinuousLines)
			}
			if a.Quantities != e.Quantities {
				t.Errorf("quantities = %d, paper %d", a.Quantities, e.Quantities)
			}
			if a.EventLines != e.EventLines {
				t.Errorf("event lines = %d, paper %d", a.EventLines, e.EventLines)
			}
			if a.Signals != e.Signals {
				t.Errorf("signals = %d, paper %d", a.Signals, e.Signals)
			}
			if a.Blocks != e.Blocks {
				t.Errorf("blocks = %d, paper %d\n%s", a.Blocks, e.Blocks, b.Module.Dump())
			}
			if a.States != e.States {
				t.Errorf("states = %d, paper %d\n%s", a.States, e.States, b.Module.Dump())
			}
			if a.Datapath != e.Datapath {
				t.Errorf("datapath = %d, paper %d\n%s", a.Datapath, e.Datapath, b.Module.Dump())
			}
		})
	}
}

// TestSynthesisResults checks the component mixes of the last column.
func TestSynthesisResults(t *testing.T) {
	want := map[string][]string{
		"receiver":   {"2 amplif.", "1 zero-cross det."},
		"powermeter": {"2 zero-cross det.", "2 S/H", "2 ADC"},
		"missile":    {"2 integ.", "1 anti-log.amplif.", "4 amplif.", "1 log.amplif."},
		// Documented deviations: 2 integrators (stable second-order loop)
		// and the difference amplifier reported in the generic amplifier
		// bucket; see Application.Deviations.
		"itersolver": {"2 integ.", "1 S/H", "1 amplif."},
		"funcgen":    {"1 integ.", "1 MUX", "1 Schmitt trigger"},
	}
	for key, parts := range want {
		app := ByKey(key)
		if app == nil {
			t.Fatalf("no application %q", key)
		}
		b, err := buildDefault(app)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		for _, p := range parts {
			if !strings.Contains(b.Actual.Synthesis, p) {
				t.Errorf("%s synthesis = %q, missing %q\n%s", key, b.Actual.Synthesis, p, b.Result.Netlist.Dump())
			}
		}
	}
}

func TestTable1Renders(t *testing.T) {
	builds, err := buildAllDefault()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	text := Table1(builds)
	for _, name := range []string{"Receiver Module", "Power Meter", "Missile Solver", "Iter.Equat. Solver", "Function Generator"} {
		if !strings.Contains(text, name) {
			t.Errorf("table missing %q:\n%s", name, text)
		}
	}
}

func TestAreasPositive(t *testing.T) {
	builds, err := buildAllDefault()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, b := range builds {
		if b.AreaUm2 <= 0 {
			t.Errorf("%s: area = %g", b.App.Key, b.AreaUm2)
		}
	}
}

func TestByKey(t *testing.T) {
	if ByKey("receiver") == nil {
		t.Error("receiver missing")
	}
	if ByKey("nosuch") != nil {
		t.Error("unexpected application")
	}
}
