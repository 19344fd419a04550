package corpus

import (
	"fmt"
	"math"
	"strings"

	"vase/internal/compile"
	"vase/internal/mapper"
	"vase/internal/mna"
	"vase/internal/parser"
	"vase/internal/sema"
	"vase/internal/sim"
	"vase/internal/vhif"
)

// Figure3Source is the example of the paper's Figure 3a: a procedural with
// two data-dependent instructions and a process resumed by two 'above
// events whose statements group into states by data dependency.
const Figure3Source = `entity fig3 is
  port (
    quantity a : in real is voltage;
    quantity b : in real is voltage;
    quantity y : out real
  );
end entity;

architecture example of fig3 is
  constant th1 : real := 1.0;
  constant th2 : real := 2.0;
  signal c : bit;
  quantity w : real;
begin
  procedural is
    variable t1 : real;
  begin
    t1 := a + b;
    w := t1 * 2.0;
  end procedural;
  if (c = '1') use y == w; else y == -w; end use;
  process (a'above(th1), b'above(th2)) is
    variable m, n, u : real;
  begin
    m := 1.0;
    n := 2.0;
    u := n + 1.0;
    if (a'above(th1) = true) then c <= '1';
    else c <= '0'; end if;
  end process;
end architecture;
`

// Figure3 compiles the Figure 3 example and renders its VHIF representation
// (the paper's Figure 3b).
func Figure3() (*vhif.Module, string, error) {
	m, err := compileSource("fig3.vhd", Figure3Source)
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	b.WriteString("Figure 3 — translation of procedural and process statements into VHIF\n\n")
	b.WriteString(m.Dump())
	b.WriteString("\nState grouping: independent assignments share a state; data-dependent\n")
	b.WriteString("ones start a new state; the if branches via guarded arcs (paper Fig. 3b).\n")
	return m, b.String(), nil
}

// Figure4Source exercises the while-loop translation of the paper's
// Figure 4: a sampling loop halving its accumulator until it drops below a
// threshold.
const Figure4Source = `entity fig4 is
  port (
    quantity a : in real is voltage;
    quantity y : out real
  );
end entity;

architecture example of fig4 is
begin
  procedural is
    variable acc : real;
  begin
    acc := a;
    while acc > 1.0 loop
      acc := acc * 0.5;
    end loop;
    y := acc;
  end procedural;
end architecture;
`

// Figure4 compiles the while-loop example and reports the structural
// elements of the translation: the two condition blocks, S/H1/S/H2 pair and
// the input routing multiplexer.
func Figure4() (*vhif.Module, string, error) {
	m, err := compileSource("fig4.vhd", Figure4Source)
	if err != nil {
		return nil, "", err
	}
	g := m.Graphs[0]
	var b strings.Builder
	b.WriteString("Figure 4 — translation of a while statement\n\n")
	b.WriteString(m.Dump())
	fmt.Fprintf(&b, "\nStructure check: %d condition blocks (icontr + contr), %d sample-and-holds (S/H1 + S/H2), %d input mux\n",
		g.CountKind(vhif.BComparator), g.CountKind(vhif.BSampleHold), g.CountKind(vhif.BMux))
	return m, b.String(), nil
}

// Figure6Module builds the signal-flow graph of the paper's Figure 6a:
// out = k1*a + k2*b, the example whose branch-and-bound decision tree the
// paper draws with complete mappings of different op amp counts.
func Figure6Module() *vhif.Module {
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

// Figure6Result is the decision-tree experiment outcome.
type Figure6Result struct {
	Result     *mapper.Result
	Complete   []int // op amp counts of every complete mapping (unbounded run)
	BestOpAmps int
}

// Figure6 reproduces the decision-tree exploration: it first enumerates all
// complete mappings without bounding (the full tree of Figure 6a), then
// runs the bounded search and reports the minimum-op-amp mapping.
func Figure6() (*Figure6Result, string, error) {
	// Both runs are traced, so each searches the graph as one part: the
	// figure's node counts and tree shape are the paper's exploration.
	unbounded := mapper.DefaultOptions()
	unbounded.NoBounding = true
	unbounded.Trace = true
	full, err := mapper.Synthesize(Figure6Module(), unbounded)
	if err != nil {
		return nil, "", err
	}
	var complete []int
	var walk func(n *mapper.TreeNode)
	walk = func(n *mapper.TreeNode) {
		if n.Complete {
			complete = append(complete, n.OpAmps)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(full.Tree)

	bounded := mapper.DefaultOptions()
	bounded.Trace = true
	res, err := mapper.Synthesize(Figure6Module(), bounded)
	if err != nil {
		return nil, "", err
	}

	var b strings.Builder
	b.WriteString("Figure 6 — architecture synthesis with branch-and-bound\n\n")
	fmt.Fprintf(&b, "signal flow: out = 15*a + 3*b (block1, block2, block3)\n\n")
	fmt.Fprintf(&b, "complete mappings in the full decision tree (op amp counts): %v\n", complete)
	fmt.Fprintf(&b, "bounded search: %d nodes visited, %d pruned, best mapping %d op amp(s)\n",
		res.Stats.NodesVisited, res.Stats.Pruned, res.Netlist.OpAmpCount())
	fmt.Fprintf(&b, "unbounded search: %d nodes visited\n\n", full.Stats.NodesVisited)
	b.WriteString("bounded decision tree:\n")
	b.WriteString(mapper.FormatTree(res.Tree))
	b.WriteString("\nbest netlist:\n")
	b.WriteString(res.Netlist.Dump())
	return &Figure6Result{Result: res, Complete: complete, BestOpAmps: res.Netlist.OpAmpCount()}, b.String(), nil
}

// Figure7 synthesizes the receiver and renders its signal-flow graph and
// circuit structure (the paper's Figures 7a and 7b).
func Figure7() (string, error) {
	b, err := buildReceiver()
	if err != nil {
		return "", err
	}
	var out strings.Builder
	out.WriteString("Figure 7 — synthesis of the receiver module\n\n")
	out.WriteString("(a) VHIF signal-flow graph:\n")
	out.WriteString(b.Module.Dump())
	out.WriteString("\n(b) synthesized circuit structure:\n")
	out.WriteString(b.Result.Netlist.Dump())
	fmt.Fprintf(&out, "\narea estimate: %.0f um^2, %d op amps, %.2f mW\n",
		b.Result.Report.AreaUm2, b.Result.Netlist.OpAmpCount(), b.Result.Report.PowerMW)
	return out.String(), nil
}

// Figure8Result holds the receiver transient experiment.
type Figure8Result struct {
	Time  []float64
	V11   []float64 // input signal (the paper's v(11))
	V5    []float64 // internal amplifier output (v(5))
	V9    []float64 // earph output (v(9))
	ClipP float64   // observed positive clip level
	ClipN float64   // observed negative clip level
}

// SpiceConfig selects the MNA engine for corpus circuit simulations. The
// zero value is the exact planned engine — bit-identical to the reference,
// so the golden figure outputs are engine-independent by construction.
type SpiceConfig struct {
	Solver mna.SolverMode
	Budget mna.ErrorBudget
}

// Figure8 reproduces the receiver simulation on the solver tier cfg
// selects (the zero value is the exact engine): the synthesized netlist is
// elaborated into a 2-stage op-amp macromodel circuit and driven with a
// deliberately high-amplitude 1 kHz input so the signal-limiting capability
// of the output stage is visible. The paper's v(9) clips at 1.5 V.
func Figure8(cfg SpiceConfig) (*Figure8Result, string, error) {
	el, err := figure8Circuit()
	if err != nil {
		return nil, "", err
	}
	el.Circuit.Solver = cfg.Solver
	el.Circuit.Budget = cfg.Budget
	tr, err := el.Circuit.Transient(3e-3, 1e-6)
	if err != nil {
		return nil, "", err
	}
	r := &Figure8Result{Time: tr.Time}
	r.V9 = el.V(tr, "earph")
	r.V11 = el.V(tr, "line")
	// v(5): the internal amplifier output — the summing amplifier's output
	// net in the synthesized netlist.
	for name := range el.NodeOf {
		if strings.Contains(name, "add") && strings.HasSuffix(name, ".out") {
			r.V5 = el.V(tr, name)
			break
		}
	}
	r.ClipP, r.ClipN = math.Inf(-1), math.Inf(1)
	for _, v := range r.V9 {
		r.ClipP = math.Max(r.ClipP, v)
		r.ClipN = math.Min(r.ClipN, v)
	}

	var out strings.Builder
	out.WriteString("Figure 8 — circuit-level simulation of the receiver module\n\n")
	out.WriteString("input: line = 1.5 V peak, 1 kHz (deliberately high amplitude)\n")
	fmt.Fprintf(&out, "observed clipping of v(9)=earph: +%.3f V / %.3f V (paper: +-1.5 V)\n\n", r.ClipP, r.ClipN)
	out.WriteString("t [ms]   v(11)=line   v(9)=earph\n")
	for i := 0; i < len(r.Time); i += 100 {
		fmt.Fprintf(&out, "%6.3f   %+8.4f    %+8.4f\n", r.Time[i]*1e3, r.V11[i], r.V9[i])
	}
	out.WriteString("\nascii waveform of v(9) (clipping visible as flat tops):\n")
	out.WriteString(asciiPlot(r.V9, 64, 16, 1.8))
	return r, out.String(), nil
}

// Figure8Behavioral runs the same experiment on the behavioral simulator.
func Figure8Behavioral() (*sim.Trace, error) {
	b, err := buildReceiver()
	if err != nil {
		return nil, err
	}
	return sim.SimulateModule(b.Module, map[string]sim.Source{
		"line":  sim.Sine(1.5, 1e3, 0),
		"local": sim.DC(0),
	}, sim.Options{TStop: 3e-3, TStep: 1e-6})
}

// asciiPlot renders a waveform as a small character plot.
func asciiPlot(samples []float64, width, height int, fullScale float64) string {
	if len(samples) == 0 {
		return "(no samples)\n"
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for x := 0; x < width; x++ {
		idx := x * (len(samples) - 1) / maxInt(width-1, 1)
		v := samples[idx]
		y := int((1 - (v+fullScale)/(2*fullScale)) * float64(height-1))
		if y < 0 {
			y = 0
		}
		if y >= height {
			y = height - 1
		}
		grid[y][x] = '*'
	}
	var b strings.Builder
	for i, row := range grid {
		label := "      "
		switch i {
		case 0:
			label = fmt.Sprintf("%+5.1f ", fullScale)
		case height / 2:
			label = "  0.0 "
		case height - 1:
			label = fmt.Sprintf("%+5.1f ", -fullScale)
		}
		b.WriteString(label + "|" + string(row) + "\n")
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func compileSource(name, text string) (*vhif.Module, error) {
	df, err := parser.Parse(name, text)
	if err != nil {
		return nil, err
	}
	d, err := sema.AnalyzeOne(df)
	if err != nil {
		return nil, err
	}
	return compile.Compile(d)
}
