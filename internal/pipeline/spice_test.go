package pipeline

import (
	"context"
	"math"
	"testing"

	"vase/internal/mapper"
	"vase/internal/mna"
	"vase/internal/netlist"
)

// spiceFixture synthesizes the mixer and returns its netlist plus a
// waveform binding for its input ports.
func spiceFixture(t *testing.T, p *Pipeline) (*netlist.Netlist, map[string]string) {
	t.Helper()
	res, _, _, err := p.Synthesize(context.Background(), "mixer.vhd", mixerSrc, mapper.DefaultOptions())
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	return res.Netlist, map[string]string{"a": "sine:0.5,1000", "b": "dc:0.2"}
}

func sameTran(t *testing.T, label string, a, b *mna.Tran) {
	t.Helper()
	if len(a.Time) != len(b.Time) || len(a.V) != len(b.V) || a.Truncated != b.Truncated {
		t.Fatalf("%s: shape mismatch: %d/%d/%v vs %d/%d/%v", label,
			len(b.Time), len(b.V), b.Truncated, len(a.Time), len(a.V), a.Truncated)
	}
	for i := range a.Time {
		if math.Float64bits(a.Time[i]) != math.Float64bits(b.Time[i]) {
			t.Fatalf("%s: time[%d] differs", label, i)
		}
	}
	for n, aw := range a.V {
		bw := b.V[n]
		if len(aw) != len(bw) {
			t.Fatalf("%s: node %d length mismatch", label, n)
		}
		for i := range aw {
			if math.Float64bits(aw[i]) != math.Float64bits(bw[i]) {
				t.Fatalf("%s: node %d sample %d = %x, want %x", label, n, i,
					math.Float64bits(bw[i]), math.Float64bits(aw[i]))
			}
		}
	}
}

func TestSpiceMemoized(t *testing.T) {
	p := newPipe(t, Options{})
	ctx := context.Background()
	nl, inputs := spiceFixture(t, p)
	first, err := p.Spice(ctx, nl, inputs, 1e-3, 1e-6, SpiceOptions{})
	if err != nil {
		t.Fatalf("spice: %v", err)
	}
	if first.Cached {
		t.Error("first run reported Cached")
	}
	if len(first.Tran.Time) < 1001 {
		t.Errorf("trace has %d samples, want the full 1ms window", len(first.Tran.Time))
	}
	again, err := p.Spice(ctx, nl, inputs, 1e-3, 1e-6, SpiceOptions{})
	if err != nil {
		t.Fatalf("spice rerun: %v", err)
	}
	if !again.Cached {
		t.Error("identical rerun was not a cache hit")
	}
	sameTran(t, "memory hit", first.Tran, again.Tran)
	if st := p.Stats().Stage(StageSpice); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("spice stage counters = %+v, want 1 miss and 1 memory hit", st)
	}
}

// TestSpiceKeySensitivity pins exactly which knobs re-address a simulation:
// every result-bearing input changes the key, the result-neutral ones do
// not, and the byte-identical exact and reference tiers share one slot.
func TestSpiceKeySensitivity(t *testing.T) {
	inputs := map[string]string{"a": "sine:0.5,1000", "b": "dc:0.2"}
	base := SpiceKey("nl", inputs, 1e-3, 1e-6, mna.SolverAuto, mna.ErrorBudget{})
	same := []struct {
		label string
		key   Key
	}{
		{"reference mode", SpiceKey("nl", inputs, 1e-3, 1e-6, mna.SolverReference, mna.ErrorBudget{})},
		{"budget under exact tier", SpiceKey("nl", inputs, 1e-3, 1e-6, mna.SolverAuto, mna.ErrorBudget{RelTol: 1e-2})},
	}
	for _, tc := range same {
		if tc.key != base {
			t.Errorf("%s changed the key; exact-tier results are byte-identical and must share one slot", tc.label)
		}
	}
	fast := SpiceKey("nl", inputs, 1e-3, 1e-6, mna.SolverFast, mna.ErrorBudget{})
	diff := []struct {
		label string
		key   Key
	}{
		{"netlist", SpiceKey("nl2", inputs, 1e-3, 1e-6, mna.SolverAuto, mna.ErrorBudget{})},
		{"input spec", SpiceKey("nl", map[string]string{"a": "sine:0.5,1000", "b": "dc:0.3"}, 1e-3, 1e-6, mna.SolverAuto, mna.ErrorBudget{})},
		{"input name", SpiceKey("nl", map[string]string{"a": "sine:0.5,1000", "c": "dc:0.2"}, 1e-3, 1e-6, mna.SolverAuto, mna.ErrorBudget{})},
		{"tstop", SpiceKey("nl", inputs, 2e-3, 1e-6, mna.SolverAuto, mna.ErrorBudget{})},
		{"tstep", SpiceKey("nl", inputs, 1e-3, 2e-6, mna.SolverAuto, mna.ErrorBudget{})},
		{"fast tier", fast},
		{"fast budget", SpiceKey("nl", inputs, 1e-3, 1e-6, mna.SolverFast, mna.ErrorBudget{RelTol: 1e-2})},
	}
	for _, tc := range diff {
		if tc.key == base {
			t.Errorf("%s did not change the key", tc.label)
		}
	}
	// The default budget spelled out explicitly is the same fast contract.
	explicit := SpiceKey("nl", inputs, 1e-3, 1e-6, mna.SolverFast,
		mna.ErrorBudget{RelTol: mna.DefaultRelTol, AbsTol: mna.DefaultAbsTol})
	if explicit != fast {
		t.Error("explicit default budget re-addressed the fast-tier result")
	}
}

func TestSpiceDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	a := newPipe(t, Options{CacheDir: dir})
	nl, inputs := spiceFixture(t, a)
	cold, err := a.Spice(ctx, nl, inputs, 1e-3, 1e-6, SpiceOptions{Solver: mna.SolverFast})
	if err != nil {
		t.Fatalf("cold spice: %v", err)
	}
	b := newPipe(t, Options{CacheDir: dir})
	warm, err := b.Spice(ctx, nl, inputs, 1e-3, 1e-6, SpiceOptions{Solver: mna.SolverFast})
	if err != nil {
		t.Fatalf("warm spice: %v", err)
	}
	if !warm.Cached {
		t.Error("fresh pipeline over the same disk store recomputed the trace")
	}
	if st := b.Stats().Stage(StageSpice); st.DiskHits != 1 {
		t.Errorf("spice stage counters = %+v, want 1 disk hit", st)
	}
	sameTran(t, "disk round-trip", cold.Tran, warm.Tran)
}

// TestSpiceUnencodableNetlist pins the stage's fallback: a netlist that
// cannot be encoded cannot be content-addressed, so it is simulated
// directly — uncached, never failed — and its trace is the one the
// memoized path produces for the equivalent encodable netlist.
func TestSpiceUnencodableNetlist(t *testing.T) {
	p := newPipe(t, Options{})
	ctx := context.Background()
	nl, inputs := spiceFixture(t, p)
	memoized, err := p.Spice(ctx, nl, inputs, 1e-3, 1e-6, SpiceOptions{})
	if err != nil {
		t.Fatalf("spice: %v", err)
	}
	odd := *nl
	odd.Name = "mixer copy" // whitespace: not encodable
	if _, err := odd.Encode(); err == nil {
		t.Fatal("fixture netlist with a space in its name encoded")
	}
	before := p.Stats().Stage(StageSpice)
	for i := 0; i < 2; i++ {
		direct, err := p.Spice(ctx, &odd, inputs, 1e-3, 1e-6, SpiceOptions{})
		if err != nil {
			t.Fatalf("unencodable netlist failed instead of simulating directly: %v", err)
		}
		if direct.Cached {
			t.Error("unencodable netlist reported a cache hit")
		}
		sameTran(t, "direct vs memoized", memoized.Tran, direct.Tran)
		if got, want := direct.Elab.V(direct.Tran, "y"), memoized.Elab.V(memoized.Tran, "y"); len(got) != len(want) {
			t.Fatalf("port y: %d samples, want %d", len(got), len(want))
		}
	}
	if after := p.Stats().Stage(StageSpice); after != before {
		t.Errorf("uncached runs moved the spice stage counters: %+v -> %+v", before, after)
	}
}
