package sim

import (
	"context"
	"fmt"
	"math"

	"vase/internal/library"
	"vase/internal/netlist"
)

// SimulateNetlist runs a functional transient analysis of a synthesized
// component netlist: every library cell evaluates its ideal transfer
// function, integrators integrate with RK4, and detectors carry hysteresis.
// It verifies that a mapped architecture still computes the specified
// behavior (the paper's Section 6 check before SPICE-level simulation).
func SimulateNetlist(nl *netlist.Netlist, inputs map[string]Source, opts Options) (*Trace, error) {
	return SimulateNetlistContext(context.Background(), nl, inputs, opts)
}

// SimulateNetlistContext is SimulateNetlist under a context: cancellation
// is observed between RK4 steps and returns the truncated trace computed
// so far (Trace.Truncated) rather than an error.
func SimulateNetlistContext(ctx context.Context, nl *netlist.Netlist, inputs map[string]Source, opts Options) (*Trace, error) {
	p, err := lowerNetlist(nl, inputs, opts)
	if err != nil {
		return nil, err
	}
	return p.run(ctx)
}

// cellOps maps the cells whose op needs no parameter; a follower is a
// gain of 1.
var cellOps = map[library.CellKind]opcode{
	library.CellFollower: opScale, library.CellMultiplier: opProd, library.CellDivider: opDiv,
	library.CellSqrt: opSqrt, library.CellRectifier: opAbs, library.CellSineShaper: opSin,
	library.CellSwitch: opSwitch, library.CellMux: opMux,
}

// lowerNetlist lowers the netlist: its constant nets, then its input
// sources, then its cells in topological order.
func lowerNetlist(nl *netlist.Netlist, inputs map[string]Source, opts Options) (*program, error) {
	p, err := newProgram(opts, "netlist state")
	if err != nil {
		return nil, err
	}
	slot := slotter[*netlist.Net](p)
	for _, n := range nl.Nets {
		if n.Const != nil {
			p.emit(op{code: opConst, out: slot(n), k: *n.Const})
		}
	}
	probes := map[string]int{}
	for _, pt := range nl.Ports {
		if pt.Dir == netlist.In {
			src, ok := inputs[pt.Name]
			if !ok {
				return nil, fmt.Errorf("sim: no source for netlist input %q", pt.Name)
			}
			p.emit(op{code: opSource, out: slot(pt.Net), src: src})
		} else {
			probes[pt.Name] = slot(pt.Net)
		}
	}
	for _, name := range opts.Probes {
		for _, n := range nl.Nets {
			if n.Name == name {
				probes[name] = slot(n)
			}
		}
	}
	byName := map[string]int{}
	for _, n := range nl.Nets {
		byName[n.Name] = slot(n)
	}
	if err := p.bind(opts.Probes, probes, byName); err != nil {
		return nil, err
	}
	order, err := nl.Topological()
	if err != nil {
		return nil, err
	}
	for _, c := range order {
		p.lowerCell(c, opts.ModelBandwidth, slot)
	}
	return p, nil
}

// lowerCell appends the op of one cell, with its state or latch.
func (p *program) lowerCell(c *netlist.Component, modelBandwidth bool, slot func(*netlist.Net) int) {
	o := op{out: slot(c.Out), a: inputSlot(c.Inputs, 0, slot), b: inputSlot(c.Inputs, 1, slot), ctrl: slot(c.Ctrl), k: 1}
	switch c.Cell.Kind {
	case library.CellInvAmp, library.CellNonInvAmp:
		o.code, o.k = opScale, c.Param("gain", 1)
	case library.CellSummingAmp, library.CellDiffAmp:
		o.code, o.in, o.w = opSum, slotsOf(c.Inputs, slot), gains(c)
	case library.CellPGA:
		o.code, o.k, o.k2 = opPGA, c.Param("gain_on", 1), c.Param("gain_off", 1)
	case library.CellMultiplier:
		o.code, o.in = opProd, []int{o.a, o.b}
	case library.CellIntegrator:
		o.code = opState
		o.idx = p.addState(state{kind: stateIntegrator, in: slotsOf(c.Inputs, slot), w: gains(c)}, 1)
	case library.CellLowPass:
		o.code = opState
		o.idx = p.addState(state{kind: stateLag, a: o.a, k: 2 * math.Pi * c.Param("fhi", 1)}, 1)
	case library.CellBandPass:
		o.code, o.k = opState, bandpassQ(c.Param("fhi", 1), c.Param("flo", 0))
		w0 := 2 * math.Pi * math.Sqrt(c.Param("fhi", 1)*c.Param("flo", 1))
		o.idx = p.addState(state{kind: stateBandPass, a: o.a, k: w0, q: o.k}, 2)
	case library.CellDiff:
		o.code, o.idx = opDiff, p.addLatch(latch{kind: latchDifferentiator, in: o.a})
	case library.CellLogAmp:
		o.code, o.k = opLog, c.Param("scale", 1)
	case library.CellAntilogAmp:
		o.code, o.k = opExp, c.Param("scale", 1)
	case library.CellMinMax:
		o.code = opMin
		if c.Param("op", 0) > 0.5 {
			o.code = opMax
		}
	case library.CellComparator, library.CellSchmitt:
		th, hyst := c.Param("threshold", 0), c.Param("hysteresis", 0)
		o.code, o.inv = opCmp, c.Param("invert", 0) > 0.5
		o.idx = p.addLatch(latch{kind: latchComparator, in: o.a, th: th, lo: th - hyst, hi: th + hyst})
	case library.CellSampleHold:
		// Clocked semantics matching the VHIF level: the output is the
		// previous sample.
		o.code, o.idx = opHold, p.addLatch(latch{kind: latchSampleHold, in: o.a, ctrl: o.ctrl})
	case library.CellADC:
		o.code, o.k = opADC, adcStep(c.Param("bits", 8))
	case library.CellOutputStage:
		o.code = opScale
		if lim := c.Param("limit", 0); lim > 0 {
			o.code, o.k = opClip, lim
		}
	case library.CellLimiter:
		o.code, o.k = opClip, c.Param("limit", 1.5)
	default:
		code, ok := cellOps[c.Cell.Kind]
		if !ok {
			code, o.k = opConst, 0
		}
		o.code = code
	}
	if modelBandwidth && c.Cell.Kind.IsAmplifier() && c.Estimate != nil && len(c.Estimate.OpAmps) > 0 {
		// Finite gain-bandwidth: the ideal value goes to a private slot, and
		// the output lags it with a closed-loop pole at UGF/noise-gain. A
		// cell without a positive pole holds its output at 0.
		lag := state{kind: stateLag, a: p.newSlot(), k: ampPole(c)}
		if !(lag.k > 0) {
			lag = state{kind: stateIntegrator}
		}
		out := o.out
		o.out = lag.a
		p.emit(o)
		o = op{code: opState, out: out, idx: p.addState(lag, 1), k: 1}
	}
	p.emit(o)
}

// gains resolves a cell's per-input weights gain0, gain1, ... (default 1).
func gains(c *netlist.Component) []float64 {
	w := make([]float64, len(c.Inputs))
	for i := range w {
		w[i] = c.Param(fmt.Sprintf("gain%d", i), 1)
	}
	return w
}

// ampPole derives the closed-loop pole of a sized amplifier: omega =
// 2*pi*UGF / noiseGain, with the inverting noise gain 1 + sum|w_i|.
func ampPole(c *netlist.Component) float64 {
	noise := 1.0
	switch c.Cell.Kind {
	case library.CellInvAmp, library.CellNonInvAmp:
		noise += math.Abs(c.Param("gain", 1))
	case library.CellPGA:
		noise += math.Max(math.Abs(c.Param("gain_on", 1)), math.Abs(c.Param("gain_off", 1)))
	default:
		for _, g := range gains(c) {
			noise += math.Abs(g)
		}
	}
	return 2 * math.Pi * c.Estimate.OpAmps[0].AchievedUGF / noise
}
