package mapper

import (
	"testing"

	"vase/internal/vhif"
)

// buildCascade constructs an n-stage gain cascade: a large search space
// (every stage has a one-amp and a two-amp match).
func buildCascade(n int) *vhif.Module {
	g := vhif.NewGraph("main")
	in := g.AddBlock(vhif.BInput, "a")
	net := in.Out
	for i := 0; i < n; i++ {
		gb := g.AddBlock(vhif.BGain, "", net)
		gb.Param = float64(i + 3)
		net = gb.Out
	}
	g.AddBlock(vhif.BOutput, "y", net)
	return &vhif.Module{Name: "cascade", Graphs: []*vhif.Graph{g}}
}

func TestFirstFitHeuristic(t *testing.T) {
	// The cascade splits into one-block parts, one per stage: there the
	// exact search already costs what first-fit costs, and first-fit
	// completes each part once.
	m := buildCascade(10)
	exact := synth(t, m, DefaultOptions())
	opts := DefaultOptions()
	opts.FirstFit = true
	greedy := synth(t, m, opts)

	if n := len(newSearch(m, opts).parts()); n != 10 {
		t.Fatalf("cascade split into %d parts, want 10", n)
	}
	if greedy.Stats.CompleteMappings != 10 {
		t.Errorf("first-fit explored %d complete mappings, want 1 per part (10)", greedy.Stats.CompleteMappings)
	}
	// With the sequencing rule ordering candidates, the first completion is
	// the op-amp optimum on this structure.
	if greedy.Netlist.OpAmpCount() != exact.Netlist.OpAmpCount() {
		t.Errorf("first-fit found %d op amps, exact %d",
			greedy.Netlist.OpAmpCount(), exact.Netlist.OpAmpCount())
	}
	// On the one-part Figure 6 graph, first-fit stops at its first
	// completion while the exact search goes on to prove the optimum.
	fig := buildFig6()
	exactFig := synth(t, fig, DefaultOptions())
	greedyFig := synth(t, fig, opts)
	if greedyFig.Stats.NodesVisited >= exactFig.Stats.NodesVisited {
		t.Errorf("first-fit visited %d nodes, exact %d — heuristic should be cheaper",
			greedyFig.Stats.NodesVisited, exactFig.Stats.NodesVisited)
	}
}

func TestFirstFitOnReceiver(t *testing.T) {
	m := compileReceiver(t)
	exact := synth(t, m, DefaultOptions())
	opts := DefaultOptions()
	opts.FirstFit = true
	greedy := synth(t, m, opts)
	if greedy.Netlist.OpAmpCount() != exact.Netlist.OpAmpCount() {
		t.Errorf("first-fit %d op amps vs exact %d",
			greedy.Netlist.OpAmpCount(), exact.Netlist.OpAmpCount())
	}
}

func TestStrongBoundPreservesOptimum(t *testing.T) {
	// With sharing disabled the strong bound is admissible: same optimum,
	// fewer or equal nodes. The strong bound searches one part, so the weak
	// run is traced to search the same one part.
	for _, m := range []*vhif.Module{buildCascade(8), buildFig6(), buildChain()} {
		weak := DefaultOptions()
		weak.NoSharing = true
		weak.Trace = true
		strong := weak
		strong.StrongBound = true
		rw := synth(t, m, weak)
		rs := synth(t, m, strong)
		if rw.Netlist.OpAmpCount() != rs.Netlist.OpAmpCount() {
			t.Errorf("%s: strong bound changed the optimum: %d vs %d",
				m.Name, rs.Netlist.OpAmpCount(), rw.Netlist.OpAmpCount())
		}
		if rs.Stats.NodesVisited > rw.Stats.NodesVisited {
			t.Errorf("%s: strong bound visited more nodes (%d) than weak (%d)",
				m.Name, rs.Stats.NodesVisited, rw.Stats.NodesVisited)
		}
	}
}

func TestStrongBoundPrunesMore(t *testing.T) {
	m := buildCascade(10)
	weak := DefaultOptions()
	weak.NoSharing = true
	weak.Trace = true // one part, like the strong bound
	strong := weak
	strong.StrongBound = true
	rw := synth(t, m, weak)
	rs := synth(t, m, strong)
	if rs.Stats.NodesVisited >= rw.Stats.NodesVisited {
		t.Errorf("strong bound should reduce nodes: %d vs %d",
			rs.Stats.NodesVisited, rw.Stats.NodesVisited)
	}
}

func TestSystemSpecFromAnnotations(t *testing.T) {
	// A port annotated "frequency 0 to 1 MHz" must raise the derived
	// bandwidth above the audio default.
	m := buildCascade(2)
	m.Ports = []*vhif.Port{{Name: "a", FreqHi: 1e6, RangeHi: 2.0}}
	sys := SystemSpecFor(m)
	if sys.Bandwidth != 1e6 {
		t.Errorf("derived bandwidth = %g, want 1e6", sys.Bandwidth)
	}
	if sys.PeakV != 2.0 {
		t.Errorf("derived peak = %g, want 2.0", sys.PeakV)
	}
	// Unannotated: audio defaults.
	sys = SystemSpecFor(buildCascade(2))
	if sys.Bandwidth != 20e3 {
		t.Errorf("default bandwidth = %g, want 20e3", sys.Bandwidth)
	}
}

func TestAnnotationsRaiseArea(t *testing.T) {
	// The same structure costs more silicon at 1 MHz than at audio rates:
	// the frequency annotation drives op amp sizing.
	audio := buildCascade(3)
	fast := buildCascade(3)
	fast.Ports = []*vhif.Port{{Name: "a", FreqHi: 2e6}}
	ra := synth(t, audio, DefaultOptions())
	rf := synth(t, fast, DefaultOptions())
	if rf.Report.AreaUm2 <= ra.Report.AreaUm2 {
		t.Errorf("2 MHz design (%.0f um^2) should exceed the audio design (%.0f um^2)",
			rf.Report.AreaUm2, ra.Report.AreaUm2)
	}
}

// buildTree constructs a balanced binary tree of weighted adders with
// depth d: 2^d inputs, 2^d - 1 adders, a gain per input.
func buildTree(d int) *vhif.Module {
	g := vhif.NewGraph("main")
	var nets []*vhif.Net
	n := 1 << d
	for i := 0; i < n; i++ {
		in := g.AddBlock(vhif.BInput, "")
		gb := g.AddBlock(vhif.BGain, "", in.Out)
		gb.Param = float64(i%7 + 2)
		nets = append(nets, gb.Out)
	}
	for len(nets) > 1 {
		var next []*vhif.Net
		for i := 0; i+1 < len(nets); i += 2 {
			next = append(next, g.AddBlock(vhif.BAdd, "", nets[i], nets[i+1]).Out)
		}
		if len(nets)%2 == 1 {
			next = append(next, nets[len(nets)-1])
		}
		nets = next
	}
	g.AddBlock(vhif.BOutput, "y", nets[0])
	return &vhif.Module{Name: "tree", Graphs: []*vhif.Graph{g}}
}

func TestLargeDesignFirstFit(t *testing.T) {
	// 16 inputs: 16 gains + 15 adders = 47 mappable blocks including the
	// input markers' gains. First-fit must complete quickly and cover
	// everything.
	m := buildTree(4)
	opts := DefaultOptions()
	opts.FirstFit = true
	res := synth(t, m, opts)
	// Summing absorption: each adder absorbs its gain inputs; the tree
	// collapses to one summing amp per adder level group (fan-in 4).
	if res.Netlist.OpAmpCount() == 0 || res.Netlist.OpAmpCount() > 15 {
		t.Errorf("op amps = %d, want within (0, 15]", res.Netlist.OpAmpCount())
	}
	if res.Stats.NodesVisited > 200 {
		t.Errorf("first-fit visited %d nodes on a 47-block design", res.Stats.NodesVisited)
	}
}

func TestMaxNodesCapRespected(t *testing.T) {
	m := buildTree(4)
	opts := DefaultOptions()
	opts.NoBounding = true
	opts.MaxNodes = 500
	res, err := Synthesize(m, opts)
	if err != nil {
		// The cap may cut the search before any complete mapping; either a
		// result or the no-mapping error is acceptable, never a hang.
		return
	}
	if res.Stats.NodesVisited > opts.MaxNodes+1 {
		t.Errorf("visited %d nodes, cap %d", res.Stats.NodesVisited, opts.MaxNodes)
	}
}
