// Package sim implements behavioral transient simulation of VHIF modules
// and synthesized component netlists.
//
// Both levels lower their design once per run into one program: every
// net is a slot of a value array, every block or cell one op with its
// parameters resolved, and every dynamic element (integrator, inferred
// low-pass or band-pass filter, and, under Options.ModelBandwidth, an
// amplifier's closed-loop pole) one state of a fixed-step fourth-order
// Runge-Kutta integration. Comparator, Schmitt-trigger and sample-and-hold
// states are updated at step boundaries with hysteresis, which keeps the
// combinational network smooth inside a step. Event-driven behavior can
// additionally be executed through the FSM interpreter, which serves as a
// reference for the analog control realizations the compiler extracts.
package sim

import (
	"context"
	"fmt"
	"math"

	"vase/internal/vhif"
)

// Source produces an input waveform value at time t.
type Source func(t float64) float64

// Sine returns a sinusoidal source.
func Sine(amplitude, freqHz, phase float64) Source {
	return func(t float64) float64 {
		return amplitude * math.Sin(2*math.Pi*freqHz*t+phase)
	}
}

// DC returns a constant source.
func DC(v float64) Source { return func(float64) float64 { return v } }

// Step returns a step source switching from v0 to v1 at t0.
func Step(v0, v1, t0 float64) Source {
	return func(t float64) float64 {
		if t < t0 {
			return v0
		}
		return v1
	}
}

// Ramp returns a linear ramp source with the given slope.
func Ramp(slope float64) Source { return func(t float64) float64 { return slope * t } }

// Options configures a transient run.
type Options struct {
	// TStop is the end time, s.
	TStop float64
	// TStep is the fixed integration step, s.
	TStep float64
	// Probes lists additional net names to record (output ports and
	// control links are always recorded). A name matching no net in the
	// design is an error listing the valid nets, so a probe typo cannot
	// silently yield a missing column.
	Probes []string
	// MaxSteps bounds the number of integration steps (0 = unlimited).
	// When it binds, the run returns the samples computed so far with
	// Trace.Truncated set; so does cancelling the context passed to the
	// Context variants.
	MaxSteps int
	// OnSample, when set, is called once per recorded integration step with
	// the sample time and a probe resolving net names to their values at
	// that instant (any net of the design, not just the recorded ones; the
	// probe reports ok=false for unknown names). It is the attachment point
	// for streaming assertion monitors (internal/assertlang): monitors run
	// during the transient rather than over the stored trace, so a
	// deadline-truncated run still observes every computed sample.
	OnSample func(t float64, probe func(name string) (float64, bool))
	// ModelBandwidth (netlist simulation only) gives every sized amplifier
	// a first-order pole at its achieved unity-gain frequency divided by
	// its noise gain, verifying that the estimator's bandwidth guard
	// suffices for the signals the design actually sees. Requires a
	// netlist whose components carry estimates (mapper output).
	ModelBandwidth bool
}

// Trace holds sampled waveforms keyed by net name.
type Trace struct {
	Time    []float64
	Signals map[string][]float64
	// Truncated marks a run stopped early by cancellation (a context
	// deadline included) or Options.MaxSteps: the waveforms hold the
	// samples computed so far.
	Truncated bool
}

// Get returns the samples of a recorded signal.
func (tr *Trace) Get(name string) []float64 { return tr.Signals[name] }

// Final returns the last sample of a signal.
func (tr *Trace) Final(name string) float64 {
	s := tr.Signals[name]
	if len(s) == 0 {
		return math.NaN()
	}
	return s[len(s)-1]
}

// Max returns the maximum sample of a signal.
func (tr *Trace) Max(name string) float64 {
	m := math.Inf(-1)
	for _, v := range tr.Signals[name] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum sample of a signal.
func (tr *Trace) Min(name string) float64 {
	m := math.Inf(1)
	for _, v := range tr.Signals[name] {
		if v < m {
			m = v
		}
	}
	return m
}

// SimulateModule runs a transient analysis of the module's signal-flow
// graphs. inputs maps input port (quantity) names to sources.
func SimulateModule(m *vhif.Module, inputs map[string]Source, opts Options) (*Trace, error) {
	return SimulateModuleContext(context.Background(), m, inputs, opts)
}

// SimulateModuleContext is SimulateModule under a context: cancellation is
// observed between RK4 steps and returns the truncated trace computed so
// far (Trace.Truncated) rather than an error, matching the anytime
// contract of the other engines.
func SimulateModuleContext(ctx context.Context, m *vhif.Module, inputs map[string]Source, opts Options) (*Trace, error) {
	p, err := lowerModule(m, inputs, opts)
	if err != nil {
		return nil, err
	}
	return p.run(ctx)
}

// blockOps maps the VHIF blocks whose op needs no parameter. Log, exp,
// add and the buffer lower to the netlist's scaled and weighted forms with
// scale and weights 1, which compute the same values bit for bit.
var blockOps = map[vhif.BlockKind]opcode{
	vhif.BAdd: opSum, vhif.BSub: opSub, vhif.BNeg: opNeg, vhif.BMul: opProd,
	vhif.BDiv: opDiv, vhif.BLog: opLog, vhif.BExp: opExp, vhif.BSqrt: opSqrt,
	vhif.BSin: opSin, vhif.BCos: opCos, vhif.BAbs: opAbs, vhif.BMin: opMin,
	vhif.BMax: opMax, vhif.BSign: opSign, vhif.BSwitch: opSwitch, vhif.BMux: opMux,
	vhif.BNot: opNot, vhif.BBuffer: opScale,
}

// lowerModule lowers the module's graphs, each in topological order, and
// records its output ports, control signals and requested probes.
func lowerModule(m *vhif.Module, inputs map[string]Source, opts Options) (*program, error) {
	p, err := newProgram(opts, "state")
	if err != nil {
		return nil, err
	}
	slot := slotter[*vhif.Net](p)
	probes, byName := map[string]int{}, map[string]int{}
	for _, g := range m.Graphs {
		if err := g.Validate(); err != nil {
			return nil, err
		}
		for _, b := range g.Topological() {
			if err := p.lowerBlock(b, inputs, slot); err != nil {
				return nil, err
			}
		}
		for _, b := range g.Blocks {
			if b.Kind == vhif.BOutput {
				probes[b.Name] = slot(b.Inputs[0])
			}
		}
		for _, name := range opts.Probes {
			for _, n := range g.Nets {
				if n.Name == name {
					probes[name] = slot(n)
				}
			}
		}
		for _, n := range g.Nets {
			byName[n.Name] = slot(n)
		}
	}
	for _, c := range m.Controls {
		probes[c.Signal] = slot(c.Net)
	}
	if err := p.bind(opts.Probes, probes, byName); err != nil {
		return nil, err
	}
	return p, nil
}

// lowerBlock appends the op of one block, with its state or latch.
func (p *program) lowerBlock(b *vhif.Block, inputs map[string]Source, slot func(*vhif.Net) int) error {
	o := op{out: slot(b.Out), a: inputSlot(b.Inputs, 0, slot), b: inputSlot(b.Inputs, 1, slot), ctrl: slot(b.Ctrl), k: 1}
	switch b.Kind {
	case vhif.BOutput:
		return nil
	case vhif.BInput:
		src, ok := inputs[b.Name]
		if !ok {
			return fmt.Errorf("sim: no source for input port %q", b.Name)
		}
		o.code, o.src = opSource, src
	case vhif.BConst:
		o.code, o.k = opConst, b.Param
	case vhif.BGain:
		o.code, o.k = opScale, b.Param
	case vhif.BIntegrator:
		o.code = opState
		o.idx = p.addState(state{kind: stateIntegrator, in: []int{o.a}, w: []float64{1}}, 1)
	case vhif.BFilter:
		o.code = opState
		if b.Param2 > 0 {
			// Band-pass: unity-gain output is bp/Q.
			o.k = bandpassQ(b.Param, b.Param2)
			o.idx = p.addState(state{kind: stateBandPass, a: o.a, k: 2 * math.Pi * math.Sqrt(b.Param*b.Param2), q: o.k}, 2)
		} else {
			o.idx = p.addState(state{kind: stateLag, a: o.a, k: 2 * math.Pi * b.Param}, 1)
		}
	case vhif.BDifferentiator:
		o.code, o.idx = opDiff, p.addLatch(latch{kind: latchDifferentiator, in: o.a})
	case vhif.BSampleHold:
		// A clocked S/H: the output is the previous sample. The one-step
		// latency is what lets S/H chains iterate (Figure 4).
		o.code, o.idx = opHold, p.addLatch(latch{kind: latchSampleHold, in: o.a, ctrl: o.ctrl})
	case vhif.BComparator, vhif.BSchmitt:
		o.code = opCmp
		o.idx = p.addLatch(latch{kind: latchComparator, in: o.a, th: b.Param, lo: b.Param - b.Hyst, hi: b.Param + b.Hyst})
	case vhif.BADC:
		bits := b.Param
		if bits <= 0 {
			bits = 8
		}
		o.code, o.k = opADC, adcStep(bits)
	case vhif.BLimiter:
		o.code, o.k = opClip, b.Param
		if o.k <= 0 {
			o.k = 1.5
		}
	default:
		code, ok := blockOps[b.Kind]
		if !ok {
			code, o.k = opConst, 0
		}
		o.code = code
		if code == opSum || code == opProd {
			o.in = slotsOf(b.Inputs, slot)
			o.w = make([]float64, len(o.in))
			for i := range o.w {
				o.w[i] = 1
			}
		}
	}
	p.emit(o)
	return nil
}

// inputSlot is the slot of input i, or the zero slot when there is none.
func inputSlot[N comparable](ins []N, i int, slot func(N) int) int {
	if i < len(ins) {
		return slot(ins[i])
	}
	return 0
}

// slotsOf is the slots of every input.
func slotsOf[N comparable](ins []N, slot func(N) int) []int {
	s := make([]int, len(ins))
	for i, n := range ins {
		s[i] = slot(n)
	}
	return s
}
