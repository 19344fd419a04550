// Tests for the anytime/budget contract of the behavioral simulators
// (cancellation, step budgets), probe-name validation, and the CSV
// ragged-trace fix.
package sim

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"vase/internal/mapper"
	"vase/internal/vhif"
)

// rampModule compiles a one-integrator module: y' = u.
func rampModule(t *testing.T) *vhif.Module {
	t.Helper()
	return compileSrc(t, `
entity ramp is
  port (quantity u : in real; quantity y : out real);
end entity;
architecture a of ramp is
begin
  y'dot == u;
end architecture;`)
}

func TestCSVRaggedTraceEmitsNaN(t *testing.T) {
	tr := &Trace{
		Time: []float64{0, 1, 2},
		Signals: map[string][]float64{
			"full":  {1, 2, 3},
			"short": {9},
		},
	}
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	want := []string{"t,full,short", "0,1,9", "1,2,NaN", "2,3,NaN"}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), b.String())
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}

func TestUnknownProbeRejected(t *testing.T) {
	m := rampModule(t)
	_, err := SimulateModule(m, map[string]Source{"u": DC(1)},
		Options{TStop: 1e-3, TStep: 1e-4, Probes: []string{"no_such_net"}})
	if err == nil {
		t.Fatal("typoed probe name accepted silently")
	}
	if !strings.Contains(err.Error(), "no_such_net") {
		t.Errorf("error %q does not name the unknown probe", err)
	}
	if !strings.Contains(err.Error(), "valid nets") {
		t.Errorf("error %q does not list the valid nets", err)
	}
	// A name taken from the valid-net list in the error is accepted.
	list := err.Error()[strings.Index(err.Error(), "valid nets:")+len("valid nets:"):]
	first := strings.Trim(strings.Split(list, ",")[0], " )")
	if _, err := SimulateModule(m, map[string]Source{"u": DC(1)},
		Options{TStop: 1e-3, TStep: 1e-4, Probes: []string{first}}); err != nil {
		t.Fatalf("probe %q from the valid list rejected: %v", first, err)
	}
}

func TestMaxStepsTruncatesTrace(t *testing.T) {
	m := rampModule(t)
	tr, err := SimulateModule(m, map[string]Source{"u": DC(1)},
		Options{TStop: 1, TStep: 1e-3, MaxSteps: 10})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if !tr.Truncated {
		t.Error("step budget bound but Truncated not set")
	}
	if got := len(tr.Time); got != 10 {
		t.Errorf("recorded %d samples, want 10", got)
	}
}

func TestCancelledSimulationReturnsPartialTrace(t *testing.T) {
	m := rampModule(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, err := SimulateModuleContext(ctx, m, map[string]Source{"u": DC(1)},
		Options{TStop: 1, TStep: 1e-6})
	if err != nil {
		t.Fatalf("cancelled simulation should return the partial trace, got error: %v", err)
	}
	if !tr.Truncated {
		t.Error("cancelled simulation did not set Truncated")
	}
}

func TestDeadlineTruncatesLongSimulation(t *testing.T) {
	m := rampModule(t)
	start := time.Now()
	// ~1e9 steps unbounded; the 20 ms context deadline must cut it short.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	tr, err := SimulateModuleContext(ctx, m, map[string]Source{"u": DC(1)},
		Options{TStop: 1e3, TStep: 1e-6})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if !tr.Truncated {
		t.Error("deadline bound but Truncated not set")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("deadline ignored: simulation ran %v", elapsed)
	}
	// The samples that were computed are still correct: y = t on a ramp.
	if n := len(tr.Time); n > 1 {
		last := tr.Time[n-1]
		if got := tr.Get("y")[n-1]; math.Abs(got-last) > 1e-6 {
			t.Errorf("truncated trace corrupt: y(%g) = %g, want %g", last, got, last)
		}
	}
}

// TestUnsteppableWindowRejected: a window whose step count is NaN or past
// the int range is an error at both levels, not an empty trace marked
// complete.
func TestUnsteppableWindowRejected(t *testing.T) {
	m := rampModule(t)
	res, err := mapper.Synthesize(m, mapper.DefaultOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	in := map[string]Source{"u": DC(1)}
	levels := map[string]func(Options) (*Trace, error){
		"vhif":    func(o Options) (*Trace, error) { return SimulateModule(m, in, o) },
		"netlist": func(o Options) (*Trace, error) { return SimulateNetlist(res.Netlist, in, o) },
	}
	windows := []Options{
		{TStop: math.NaN(), TStep: 1e-6},
		{TStop: 1e-3, TStep: math.NaN()},
		{TStop: 1e300, TStep: 1e-300},
		{TStop: math.Inf(1), TStep: 1e-6},
	}
	for level, run := range levels {
		for _, w := range windows {
			tr, err := run(w)
			if err == nil {
				t.Errorf("%s: tstop=%g tstep=%g: accepted (%d samples, truncated %v)", level, w.TStop, w.TStep, len(tr.Time), tr.Truncated)
				continue
			}
			if !strings.Contains(err.Error(), "not a representable step count") {
				t.Errorf("%s: tstop=%g tstep=%g: error %q does not name the step count", level, w.TStop, w.TStep, err)
			}
		}
	}
}
