// Public-API surface of the anytime contract: Synthesize under a context,
// cancellation of Compile/Lint, and truncated simulations and sweeps.
package vase_test

import (
	"context"
	"testing"
	"time"

	"vase"
)

// isolated returns a fresh pipeline so the cancellation contract is tested
// against a real computation — the shared default pipeline could serve a
// cached (complete) result and mask it.
func isolated(t *testing.T) *vase.Pipeline {
	t.Helper()
	p, err := vase.NewPipeline(vase.PipelineOptions{})
	if err != nil {
		t.Fatalf("new pipeline: %v", err)
	}
	return p
}

func TestSynthesizeCancelledReturnsNonoptimal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	arch, err := vase.Synthesize(ctx, isolated(t), vase.Source{Name: "mixer.vhd", Text: mixerSrc},
		vase.DefaultSynthesisOptions())
	if err != nil {
		t.Fatalf("cancelled Synthesize failed instead of returning incumbent: %v", err)
	}
	if !arch.Nonoptimal {
		t.Error("cancelled Synthesize did not set Nonoptimal")
	}
	if arch.Netlist.OpAmpCount() < 1 {
		t.Error("incumbent has no op amps")
	}
}

func TestSynthesizeDeadlineOption(t *testing.T) {
	// An ample context deadline changes nothing: same netlist, Nonoptimal
	// unset. The bounded run searches on a fresh pipeline, so the deadline
	// governs a real search rather than a cache hit.
	opts := vase.DefaultSynthesisOptions()
	arch, err := vase.Synthesize(ctx, nil, vase.Source{Name: "mixer.vhd", Text: mixerSrc}, opts)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	hour, cancel := context.WithTimeout(ctx, time.Hour)
	defer cancel()
	bounded, err := vase.Synthesize(hour, isolated(t), vase.Source{Name: "mixer.vhd", Text: mixerSrc}, opts)
	if err != nil {
		t.Fatalf("synthesize with deadline: %v", err)
	}
	if bounded.Nonoptimal {
		t.Error("ample deadline marked result Nonoptimal")
	}
	if a, b := arch.Netlist.Dump(), bounded.Netlist.Dump(); a != b {
		t.Errorf("deadline changed the netlist:\n--- unbounded ---\n%s\n--- bounded ---\n%s", a, b)
	}
}

func TestCompileContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := vase.Compile(ctx, isolated(t), vase.Source{Name: "mixer.vhd", Text: mixerSrc}); err == nil {
		t.Fatal("cancelled Compile succeeded")
	}
}

func TestLintContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := vase.Lint(ctx, isolated(t), vase.Source{Name: "mixer.vhd", Text: mixerSrc}, vase.LintOptions{}); err == nil {
		t.Fatal("cancelled Lint succeeded")
	}
	// An open context lints normally.
	if _, err := vase.Lint(context.Background(), nil,
		vase.Source{Name: "mixer.vhd", Text: mixerSrc}, vase.LintOptions{}); err != nil {
		t.Fatalf("background Lint failed: %v", err)
	}
}

func TestACContextTruncates(t *testing.T) {
	d, err := vase.Compile(context.Background(), nil, vase.Source{Name: "mixer.vhd", Text: mixerSrc})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	arch, err := d.Synthesize(context.Background(), vase.DefaultSynthesisOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := arch.AC(ctx, "a", 10, 1e6, 16)
	if err != nil {
		t.Fatalf("cancelled AC failed instead of truncating: %v", err)
	}
	if !resp.Truncated {
		t.Error("cancelled AC sweep did not set Truncated")
	}
	if len(resp.Freqs) != 0 {
		t.Errorf("cancelled-before-start sweep holds %d points, want 0", len(resp.Freqs))
	}
	// A live context sweeps all points.
	full, err := arch.AC(context.Background(), "a", 10, 1e6, 16)
	if err != nil {
		t.Fatalf("AC: %v", err)
	}
	if full.Truncated || len(full.Freqs) != 16 {
		t.Errorf("full sweep: truncated=%v points=%d, want 16 untruncated", full.Truncated, len(full.Freqs))
	}
}

func TestSimulateContextTruncates(t *testing.T) {
	d, err := vase.Compile(ctx, nil, vase.Source{Name: "mixer.vhd", Text: mixerSrc})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	inputs := map[string]vase.Waveform{"a": vase.DC(1), "b": vase.DC(1)}
	tr, err := d.Simulate(ctx, inputs,
		vase.SimOptions{TStop: 1, TStep: 1e-4, MaxSteps: 7})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if !tr.Truncated {
		t.Error("MaxSteps did not truncate the trace")
	}
	if len(tr.Time) != 7 {
		t.Errorf("trace holds %d samples, want 7", len(tr.Time))
	}
}
