package corpus

import (
	"math"
	"strings"
	"testing"

	"vase/internal/vhif"
)

func TestFigure3(t *testing.T) {
	m, text, err := Figure3()
	if err != nil {
		t.Fatalf("figure 3: %v", err)
	}
	if len(m.FSMs) != 1 {
		t.Fatalf("fsms = %d, want 1", len(m.FSMs))
	}
	f := m.FSMs[0]
	// Paper Figure 3b: start, state1 {m,n}, state2 {u}, branch states for
	// the if. At least 5 states with the branch pair.
	if len(f.States) < 5 {
		t.Errorf("states = %d, want >= 5\n%s", len(f.States), text)
	}
	// Concurrency grouping: one state holds two ops.
	found2 := false
	for _, s := range f.States {
		if len(s.Ops) == 2 {
			found2 = true
		}
	}
	if !found2 {
		t.Errorf("no state with two concurrent operations\n%s", text)
	}
	if !strings.Contains(text, "State grouping") {
		t.Error("figure text missing explanation")
	}
}

func TestFigure4(t *testing.T) {
	m, text, err := Figure4()
	if err != nil {
		t.Fatalf("figure 4: %v", err)
	}
	g := m.Graphs[0]
	if n := g.CountKind(vhif.BComparator); n != 2 {
		t.Errorf("condition blocks = %d, want 2 (icontr + contr)\n%s", n, text)
	}
	if n := g.CountKind(vhif.BSampleHold); n != 2 {
		t.Errorf("sample-holds = %d, want 2 (S/H1 + S/H2)", n)
	}
	if n := g.CountKind(vhif.BMux); n != 2 {
		t.Errorf("routing muxes = %d, want 2 (the sw switch pairs of Fig. 4b)", n)
	}
}

func TestFigure6(t *testing.T) {
	r, text, err := Figure6()
	if err != nil {
		t.Fatalf("figure 6: %v", err)
	}
	if r.BestOpAmps != 1 {
		t.Errorf("best mapping = %d op amps, want 1 (summing amplifier)", r.BestOpAmps)
	}
	if len(r.Complete) < 3 {
		t.Errorf("complete mappings = %d, want >= 3 alternatives\n%s", len(r.Complete), text)
	}
	// The tree must contain strictly costlier alternatives, as in the
	// paper's figure (2, 3 and 7 op amp mappings for its example).
	max := 0
	for _, n := range r.Complete {
		if n > max {
			max = n
		}
	}
	if max < 3 {
		t.Errorf("costliest complete mapping = %d op amps, want >= 3", max)
	}
	if !strings.Contains(text, "decision tree") {
		t.Error("figure text missing the decision tree")
	}
}

func TestFigure7(t *testing.T) {
	text, err := Figure7()
	if err != nil {
		t.Fatalf("figure 7: %v", err)
	}
	for _, want := range []string{"signal-flow graph", "circuit structure", "pga", "zero_cross_det", "output_stage"} {
		if !strings.Contains(text, want) {
			t.Errorf("figure 7 text missing %q", want)
		}
	}
}

func TestFigure8(t *testing.T) {
	r, text, err := Figure8(SpiceConfig{})
	if err != nil {
		t.Fatalf("figure 8: %v", err)
	}
	if math.Abs(r.ClipP-1.5) > 0.08 {
		t.Errorf("positive clip = %g, want ~1.5", r.ClipP)
	}
	if math.Abs(r.ClipN+1.5) > 0.08 {
		t.Errorf("negative clip = %g, want ~-1.5", r.ClipN)
	}
	if len(r.V9) == 0 || len(r.V11) == 0 {
		t.Fatal("missing waveforms")
	}
	if !strings.Contains(text, "clipping") {
		t.Error("figure text missing clipping report")
	}
	// The behavioral simulation agrees on the clip level.
	tr, err := Figure8Behavioral()
	if err != nil {
		t.Fatalf("behavioral: %v", err)
	}
	if m := tr.Max("earph"); math.Abs(m-1.5) > 1e-6 {
		t.Errorf("behavioral clip = %g, want 1.5", m)
	}
}
