package mapper

import (
	"strings"
	"testing"

	"vase/internal/library"
	"vase/internal/parser"
	"vase/internal/patterns"
	"vase/internal/sema"
	"vase/internal/vhif"

	"vase/internal/compile"
)

// buildFig6 constructs the paper's Figure 6a signal-flow graph: two gain
// blocks feeding an adder (out = k1*a + k2*b), the structure whose decision
// tree the paper draws with 2-, 3- and 7-op-amp complete mappings.
func buildFig6() *vhif.Module {
	g := vhif.NewGraph("main")
	a := g.AddBlock(vhif.BInput, "a")
	b := g.AddBlock(vhif.BInput, "b")
	g1 := g.AddBlock(vhif.BGain, "block1", a.Out)
	g1.Param = 15
	g2 := g.AddBlock(vhif.BGain, "block2", b.Out)
	g2.Param = 3
	sum := g.AddBlock(vhif.BAdd, "block3", g1.Out, g2.Out)
	g.AddBlock(vhif.BOutput, "out", sum.Out)
	return &vhif.Module{Name: "fig6", Graphs: []*vhif.Graph{g}}
}

func synth(t *testing.T, m *vhif.Module, opts Options) *Result {
	t.Helper()
	res, err := Synthesize(m, opts)
	if err != nil {
		t.Fatalf("synthesize: %v", err)
	}
	return res
}

func TestFig6MinimumMapping(t *testing.T) {
	res := synth(t, buildFig6(), DefaultOptions())
	// The summing amplifier covers all three blocks with one op amp.
	if n := res.Netlist.OpAmpCount(); n != 1 {
		t.Errorf("op amps = %d, want 1\n%s", n, res.Netlist.Dump())
	}
	if n := res.Netlist.CountKind(library.CellSummingAmp); n != 1 {
		t.Errorf("summing amps = %d, want 1", n)
	}
}

func TestFig6DecisionTreeHasAlternatives(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	opts.NoBounding = true // keep all complete leaves for inspection
	res := synth(t, buildFig6(), opts)
	var complete []int
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		if n.Complete {
			complete = append(complete, n.OpAmps)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(res.Tree)
	if len(complete) < 3 {
		t.Fatalf("complete mappings = %d, want >= 3 (paper's tree shows several)\n%s",
			len(complete), FormatTree(res.Tree))
	}
	min, max := complete[0], complete[0]
	for _, n := range complete {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min != 1 {
		t.Errorf("minimum op amps = %d, want 1", min)
	}
	if max < 3 {
		t.Errorf("maximum op amps = %d, want >= 3 (one cell per block, split gains)", max)
	}
}

func TestBoundingReducesNodes(t *testing.T) {
	seq := DefaultOptions()
	with := synth(t, buildFig6(), seq)
	opts := seq
	opts.NoBounding = true
	without := synth(t, buildFig6(), opts)
	if with.Stats.NodesVisited > without.Stats.NodesVisited {
		t.Errorf("bounding should not increase nodes: %d vs %d",
			with.Stats.NodesVisited, without.Stats.NodesVisited)
	}
	if with.Netlist.OpAmpCount() != without.Netlist.OpAmpCount() {
		t.Errorf("bounding changed the optimum: %d vs %d op amps",
			with.Netlist.OpAmpCount(), without.Netlist.OpAmpCount())
	}
}

func TestSequencingFindsOptimumEarly(t *testing.T) {
	seq := DefaultOptions()
	good := synth(t, buildFig6(), seq)
	opts := seq
	opts.NoSequencing = true
	bad := synth(t, buildFig6(), opts)
	// Same optimum either way; the sequencing rule should not visit more
	// nodes than the reversed order (it usually visits strictly fewer on
	// larger designs).
	if good.Netlist.OpAmpCount() != bad.Netlist.OpAmpCount() {
		t.Errorf("sequencing changed the optimum: %d vs %d",
			good.Netlist.OpAmpCount(), bad.Netlist.OpAmpCount())
	}
	if good.Stats.NodesVisited > bad.Stats.NodesVisited {
		t.Errorf("sequencing visited more nodes (%d) than reversed order (%d)",
			good.Stats.NodesVisited, bad.Stats.NodesVisited)
	}
}

// buildSharedGraph constructs a graph where two paths compute the same
// sub-expression (gain 5 of input a) feeding different outputs: the sharing
// analysis must allocate the amplifier once.
func buildSharedGraph() *vhif.Module {
	g := vhif.NewGraph("main")
	a := g.AddBlock(vhif.BInput, "a")
	b := g.AddBlock(vhif.BInput, "b")
	g1 := g.AddBlock(vhif.BGain, "g1", a.Out)
	g1.Param = 5
	g2 := g.AddBlock(vhif.BGain, "g2", a.Out)
	g2.Param = 5
	m1 := g.AddBlock(vhif.BMul, "m1", g1.Out, b.Out)
	m2 := g.AddBlock(vhif.BMul, "m2", g2.Out, b.Out)
	g.AddBlock(vhif.BOutput, "y1", m1.Out)
	g.AddBlock(vhif.BOutput, "y2", m2.Out)
	return &vhif.Module{Name: "shared", Graphs: []*vhif.Graph{g}}
}

func TestSharingAcrossPaths(t *testing.T) {
	res := synth(t, buildSharedGraph(), DefaultOptions())
	opts := DefaultOptions()
	opts.NoSharing = true
	noShare := synth(t, buildSharedGraph(), opts)
	if res.Netlist.OpAmpCount() >= noShare.Netlist.OpAmpCount() {
		t.Errorf("sharing should reduce op amps: %d (shared) vs %d (unshared)",
			res.Netlist.OpAmpCount(), noShare.Netlist.OpAmpCount())
	}
	// The two multipliers read the same shared amplifier output; m2's
	// second multiplier also shares (identical inputs), so one of each.
	sharedComps := 0
	for _, c := range res.Netlist.Components {
		if c.Shared {
			sharedComps++
		}
	}
	if sharedComps == 0 {
		t.Errorf("no component marked shared\n%s", res.Netlist.Dump())
	}
}

// exhaustiveMinOpAmps computes the true minimum op amp count by exploring
// without bounding and recording every complete mapping.
func exhaustiveMinOpAmps(t *testing.T, m *vhif.Module) int {
	t.Helper()
	opts := DefaultOptions()
	opts.NoBounding = true
	opts.Trace = true
	res := synth(t, m, opts)
	min := 1 << 30
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		if n.Complete && n.OpAmps < min {
			min = n.OpAmps
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(res.Tree)
	return min
}

func TestBranchAndBoundOptimality(t *testing.T) {
	// The bounded search must find the same op-amp minimum as exhaustive
	// enumeration on several structures.
	mods := []*vhif.Module{buildFig6(), buildSharedGraph(), buildChain(), buildMixed()}
	for i, m := range mods {
		want := exhaustiveMinOpAmps(t, m)
		got := synth(t, m, DefaultOptions()).Netlist.OpAmpCount()
		if got != want {
			t.Errorf("module %d (%s): bounded optimum %d != exhaustive %d", i, m.Name, got, want)
		}
	}
}

func buildChain() *vhif.Module {
	g := vhif.NewGraph("main")
	a := g.AddBlock(vhif.BInput, "a")
	g1 := g.AddBlock(vhif.BGain, "g1", a.Out)
	g1.Param = -2
	n1 := g.AddBlock(vhif.BNeg, "n1", g1.Out)
	add := g.AddBlock(vhif.BAdd, "add", n1.Out, a.Out)
	integ := g.AddBlock(vhif.BIntegrator, "integ", add.Out)
	g.AddBlock(vhif.BOutput, "y", integ.Out)
	return &vhif.Module{Name: "chain", Graphs: []*vhif.Graph{g}}
}

func buildMixed() *vhif.Module {
	g := vhif.NewGraph("main")
	a := g.AddBlock(vhif.BInput, "a")
	cmp := g.AddBlock(vhif.BComparator, "cmp", a.Out)
	cmp.Param = 0.5
	lg := g.AddBlock(vhif.BLog, "lg", a.Out)
	ex := g.AddBlock(vhif.BExp, "ex", lg.Out)
	sw := g.AddBlock(vhif.BSwitch, "sw", ex.Out)
	sw.SetCtrl(g, cmp.Out)
	g.AddBlock(vhif.BOutput, "y", sw.Out)
	return &vhif.Module{Name: "mixed", Graphs: []*vhif.Graph{g}}
}

func TestChainSummingIntegrator(t *testing.T) {
	res := synth(t, buildChain(), DefaultOptions())
	// add(+gains) + integ collapse into a summing integrator; the -2 gain
	// and neg are absorbed as weights: ideally 1 op amp... the neg chain
	// requires gain absorption through two levels, so allow 1 or 2.
	if n := res.Netlist.OpAmpCount(); n > 2 {
		t.Errorf("op amps = %d, want <= 2\n%s", n, res.Netlist.Dump())
	}
	if res.Netlist.CountKind(library.CellIntegrator) != 1 {
		t.Errorf("integrators = %d, want 1", res.Netlist.CountKind(library.CellIntegrator))
	}
}

func TestReceiverSynthesis(t *testing.T) {
	m := compileReceiver(t)
	res := synth(t, m, DefaultOptions())
	nl := res.Netlist
	// Paper Table 1: "2 amplif., 1 zero-cross det." (plus the inferred
	// output stage, which the paper's summary omits).
	amps := 0
	for _, c := range nl.Components {
		if c.Cell.Kind.IsAmplifier() {
			amps++
		}
	}
	if amps != 2 {
		t.Errorf("amplifiers = %d, want 2 (summing amp + PGA)\n%s", amps, nl.Dump())
	}
	if n := nl.CountKind(library.CellComparator); n != 1 {
		t.Errorf("zero-cross detectors = %d, want 1", n)
	}
	if n := nl.CountKind(library.CellOutputStage); n != 1 {
		t.Errorf("output stages = %d, want 1", n)
	}
	if got := nl.Summary(); !strings.Contains(got, "2 amplif.") || !strings.Contains(got, "1 zero-cross det.") {
		t.Errorf("summary = %q, want the paper's \"2 amplif., 1 zero-cross det.\"", got)
	}
}

func compileReceiver(t *testing.T) *vhif.Module {
	t.Helper()
	src := `
entity telephone is
  port (
    quantity line  : in real is voltage;
    quantity local : in real is voltage;
    quantity earph : out real is voltage limited at 1.5 drives 270.0 at 0.285 peak
  );
end entity;
architecture behavioral of telephone is
  constant Aline  : real := 4.0;
  constant Alocal : real := 2.0;
  constant r1c    : real := 0.5;
  constant r2c    : real := 0.25;
  constant Vth    : real := 0.1;
  quantity rvar : real;
  signal c1 : bit;
begin
  earph == (Aline * line + Alocal * local) * rvar;
  if (c1 = '1') use
    rvar == r1c;
  else
    rvar == r1c + r2c;
  end use;
  process (line'above(Vth)) is
  begin
    if (line'above(Vth) = true) then
      c1 <= '1';
    else
      c1 <= '0';
    end if;
  end process;
end architecture;`
	df, err := parser.Parse("receiver.vhd", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := sema.AnalyzeOne(df)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	m, err := compile.Compile(d)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

func TestNaiveDirectMappingCostsMore(t *testing.T) {
	m := compileReceiver(t)
	twoStep := synth(t, m, DefaultOptions())
	opts := DefaultOptions()
	opts.Patterns = patterns.Options{NoAbsorption: true}
	naive := synth(t, m, opts)
	if naive.Netlist.OpAmpCount() <= twoStep.Netlist.OpAmpCount() {
		t.Errorf("naive mapping (%d op amps) should cost more than pattern absorption (%d)",
			naive.Netlist.OpAmpCount(), twoStep.Netlist.OpAmpCount())
	}
	if naive.Report.AreaUm2 <= twoStep.Report.AreaUm2 {
		t.Errorf("naive area (%.0f) should exceed optimized area (%.0f)",
			naive.Report.AreaUm2, twoStep.Report.AreaUm2)
	}
}

func TestNetlistEstimatePositive(t *testing.T) {
	res := synth(t, compileReceiver(t), DefaultOptions())
	if res.Report.AreaUm2 <= 0 || res.Report.PowerMW <= 0 {
		t.Errorf("report = %+v, want positive area and power", res.Report)
	}
	if res.Report.OpAmps != res.Netlist.OpAmpCount() {
		t.Errorf("report op amps %d != netlist %d", res.Report.OpAmps, res.Netlist.OpAmpCount())
	}
}

func TestNetlistPortsComplete(t *testing.T) {
	res := synth(t, compileReceiver(t), DefaultOptions())
	for _, name := range []string{"line", "local", "earph"} {
		if res.Netlist.PortByName(name) == nil {
			t.Errorf("port %q missing from netlist", name)
		}
	}
}

func TestFormatTree(t *testing.T) {
	opts := DefaultOptions()
	opts.Trace = true
	res := synth(t, buildFig6(), opts)
	text := FormatTree(res.Tree)
	if !strings.Contains(text, "complete mapping") {
		t.Errorf("tree missing complete leaves:\n%s", text)
	}
	if !strings.Contains(text, "op amps") {
		t.Errorf("tree missing op amp annotations:\n%s", text)
	}
}

// buildTie constructs a two-part design whose first part has two mappings
// of equal cost. y1 = g1 + b with g1 = 1*a, and y2 = g2 = 1*a: either the
// summing amplifier absorbs g1 and g2 gets its own follower, or a plain
// summer reads g1's follower, which g2 shares. Both cost one summer and one
// follower. The second part, y3 = 3*c, shares nothing with the first.
func buildTie() *vhif.Module {
	g := vhif.NewGraph("main")
	a := g.AddBlock(vhif.BInput, "a")
	b := g.AddBlock(vhif.BInput, "b")
	c := g.AddBlock(vhif.BInput, "c")
	g1 := g.AddBlock(vhif.BGain, "g1", a.Out)
	g1.Param = 1
	add := g.AddBlock(vhif.BAdd, "add", g1.Out, b.Out)
	g2 := g.AddBlock(vhif.BGain, "g2", a.Out)
	g2.Param = 1
	g3 := g.AddBlock(vhif.BGain, "g3", c.Out)
	g3.Param = 3
	g.AddBlock(vhif.BOutput, "y1", add.Out)
	g.AddBlock(vhif.BOutput, "y2", g2.Out)
	g.AddBlock(vhif.BOutput, "y3", g3.Out)
	return &vhif.Module{Name: "tie", Graphs: []*vhif.Graph{g}}
}

// TestPartsTieKeepsFirstMapping pins the tie rule of the parts search:
// each part keeps the first of its equal-cost mappings in block order, as
// the one-part search does.
func TestPartsTieKeepsFirstMapping(t *testing.T) {
	m := buildTie()
	if n := len(newSearch(m, DefaultOptions()).parts()); n != 2 {
		t.Fatalf("tie design split into %d parts, want 2", n)
	}
	all := DefaultOptions()
	all.NoBounding = true
	all.Trace = true
	min, ties := 1e300, 0
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		if n.Complete {
			switch {
			case n.AreaUm2 < min:
				min, ties = n.AreaUm2, 1
			case n.AreaUm2 == min:
				ties++
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(synth(t, m, all).Tree)
	if ties != 2 {
		t.Fatalf("%d mappings share the minimum area %g, want 2", ties, min)
	}

	parts := synth(t, m, DefaultOptions())
	one := DefaultOptions()
	one.Trace = true
	if p, o := parts.Netlist.Dump(), synth(t, m, one).Netlist.Dump(); p != o {
		t.Fatalf("parts and one-part netlists differ\n--- parts ---\n%s\n--- one part ---\n%s", p, o)
	}
	// The first mapping in block order: the summer at add absorbs g1, and
	// g2 gets its own follower.
	for _, c := range parts.Netlist.Components {
		if c.Name == "g1" || c.Shared {
			t.Fatalf("parts search kept the later equal-cost mapping\n%s", parts.Netlist.Dump())
		}
	}
	if parts.Report.AreaUm2 != min {
		t.Errorf("area %g, want the minimum %g", parts.Report.AreaUm2, min)
	}
}
