package mna

import (
	"fmt"
	"math"

	"vase/internal/library"
	"vase/internal/netlist"
)

// Op amp macromodel parameters used during elaboration.
const (
	olGain    = 1e4 // open-loop gain
	vSwing    = 4.0 // internal output swing (±V) on a ±5 V supply
	ctrlSwing = 2.5 // comparator output levels ±2.5 V, switch threshold 0
	unitR     = 10e3
	ronSwitch = 100.0
	roffSw    = 1e9
)

// Elaborated binds a synthesized netlist to its MNA circuit.
type Elaborated struct {
	Circuit *Circuit
	// NodeOf maps netlist net names to circuit nodes.
	NodeOf map[string]Node
	// PolOf gives the polarity (+1/-1) of each mapped net: inverting
	// op-amp stages flip signal polarity, which the elaborator tracks so
	// that recorded waveforms carry the true sign.
	PolOf map[string]float64
}

// V returns the true (polarity-corrected) waveform of a netlist net.
func (e *Elaborated) V(tr *Tran, name string) []float64 {
	n, ok := e.NodeOf[name]
	if !ok {
		return nil
	}
	pol := e.PolOf[name]
	if pol == 0 {
		pol = 1
	}
	raw := tr.V[n]
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = pol * v
	}
	return out
}

// Elaborate expands a synthesized component netlist into an op-amp
// macromodel circuit: amplifier cells become saturating op amps with
// resistive feedback (inverting stages, with polarity tracked), integrators
// become RC Miller integrators, comparators become open-loop stages with
// reference sources, multiplexers and programmable-gain stages use
// voltage-controlled switches, output stages saturate at their limit level
// and drive their annotated load, and transcendental computational cells
// use behavioral sources.
func Elaborate(nl *netlist.Netlist, inputs map[string]Waveform) (*Elaborated, error) {
	order, err := nl.Topological()
	if err != nil {
		return nil, err
	}
	e := &elab{
		ckt:  New(),
		out:  &Elaborated{NodeOf: map[string]Node{}, PolOf: map[string]float64{}},
		pol:  map[*netlist.Net]float64{},
		node: map[*netlist.Net]Node{},
	}
	e.out.Circuit = e.ckt

	// Input ports become voltage sources.
	for _, p := range nl.Ports {
		if p.Dir != netlist.In {
			continue
		}
		w, ok := inputs[p.Name]
		if !ok {
			return nil, fmt.Errorf("mna: no waveform for input port %q", p.Name)
		}
		n := e.nodeFor(p.Net)
		e.ckt.AddV("v_"+p.Name, n, Ground, w)
		e.pol[p.Net] = 1
	}

	// Constant (reference) nets become bias voltage sources.
	for _, net := range nl.Nets {
		if net.Const != nil {
			v := *net.Const
			e.ckt.AddV("vref_"+net.Name, e.nodeFor(net), Ground, func(float64) float64 { return v })
			e.pol[net] = 1
		}
	}

	for _, c := range order {
		if err := e.component(c); err != nil {
			return nil, err
		}
	}

	// Export the node/polarity maps. Internal nets may reuse quantity
	// names (the compiler names a defining net after its quantity), so
	// external ports are mapped last and win any collision.
	for net, n := range e.node { //vase:unordered (per-key writes; net names are unique)
		e.out.NodeOf[net.Name] = n
		e.out.PolOf[net.Name] = e.pol[net]
	}
	for _, p := range nl.Ports {
		if n, ok := e.node[p.Net]; ok {
			e.out.NodeOf[p.Name] = n
			e.out.PolOf[p.Name] = e.pol[p.Net]
		}
	}
	return e.out, nil
}

type elab struct {
	ckt  *Circuit
	out  *Elaborated
	pol  map[*netlist.Net]float64
	node map[*netlist.Net]Node
	seq  int
}

func (e *elab) nodeFor(n *netlist.Net) Node {
	if nd, ok := e.node[n]; ok {
		return nd
	}
	nd := e.ckt.NodeByName(n.Name)
	e.node[n] = nd
	return nd
}

func (e *elab) aux(prefix string) Node {
	e.seq++
	return e.ckt.NodeByName(fmt.Sprintf("%s_%d", prefix, e.seq))
}

func (e *elab) polOf(n *netlist.Net) float64 {
	if p, ok := e.pol[n]; ok && p != 0 {
		return p
	}
	return 1
}

// trueNode returns a node carrying the positive-polarity value of net,
// inserting a unity inverting stage when needed.
func (e *elab) trueNode(n *netlist.Net, name string) Node {
	nd := e.nodeFor(n)
	if e.polOf(n) > 0 {
		return nd
	}
	return e.invert(nd, name)
}

// invert adds a unity inverting op-amp stage and returns its output node.
func (e *elab) invert(in Node, name string) Node {
	vg := e.aux(name + "_vg")
	out := e.aux(name + "_out")
	e.ckt.AddR(name+"_ri", in, vg, unitR)
	e.ckt.AddR(name+"_rf", out, vg, unitR)
	e.ckt.AddOpAmp(name+"_oa", out, Ground, vg, olGain, vSwing)
	return out
}

// component elaborates one library cell instance.
func (e *elab) component(c *netlist.Component) error {
	name := c.Name
	switch c.Cell.Kind {
	case library.CellInvAmp, library.CellNonInvAmp:
		return e.summer(c, []float64{c.Param("gain", 1)})
	case library.CellFollower:
		in := e.nodeFor(c.Inputs[0])
		out := e.nodeFor(c.Out)
		e.ckt.AddOpAmp(name+"_oa", out, in, out, olGain, vSwing)
		e.pol[c.Out] = e.polOf(c.Inputs[0])
		return nil
	case library.CellSummingAmp, library.CellDiffAmp:
		ws := make([]float64, len(c.Inputs))
		for i := range c.Inputs {
			ws[i] = c.Param(fmt.Sprintf("gain%d", i), 1)
		}
		return e.summer(c, ws)
	case library.CellPGA:
		return e.pga(c)
	case library.CellIntegrator:
		return e.integrator(c)
	case library.CellComparator, library.CellSchmitt:
		return e.detector(c)
	case library.CellMux:
		return e.mux(c)
	case library.CellSwitch:
		in := e.nodeFor(c.Inputs[0])
		out := e.nodeFor(c.Out)
		ctrl := e.nodeFor(c.Ctrl)
		e.ckt.AddSwitch(name+"_sw", in, out, ctrl, Ground, ronSwitch, roffSw, 0)
		e.ckt.AddR(name+"_rleak", out, Ground, 1e6)
		e.pol[c.Out] = e.polOf(c.Inputs[0])
		return nil
	case library.CellSampleHold:
		return e.sampleHold(c)
	case library.CellOutputStage, library.CellLimiter:
		return e.outputStage(c)
	case library.CellLowPass, library.CellBandPass:
		return e.filter(c)
	default:
		return e.behavioral(c)
	}
}

// filter realizes inferred filters with passive RC sections and a buffer:
// a low-pass is R into a grounded C; a band-pass prepends a series-C
// high-pass section for the lower corner.
func (e *elab) filter(c *netlist.Component) error {
	name := c.Name
	in := e.nodeFor(c.Inputs[0])
	out := e.nodeFor(c.Out)
	const cVal = 10e-9
	node := in
	if c.Cell.Kind == library.CellBandPass {
		if flo := c.Param("flo", 0); flo > 0 {
			hp := e.aux(name + "_hp")
			rHP := 1 / (2 * math.Pi * flo * cVal)
			e.ckt.AddC(name+"_chp", node, hp, cVal, 0)
			e.ckt.AddR(name+"_rhp", hp, Ground, rHP)
			node = hp
		}
	}
	lp := e.aux(name + "_lp")
	fhi := c.Param("fhi", 1)
	rLP := 1 / (2 * math.Pi * fhi * cVal)
	e.ckt.AddR(name+"_rlp", node, lp, rLP)
	e.ckt.AddC(name+"_clp", lp, Ground, cVal, 0)
	e.ckt.AddOpAmp(name+"_oa", out, lp, out, olGain, vSwing)
	e.pol[c.Out] = e.polOf(c.Inputs[0])
	return nil
}

// summer realizes a weighted sum as an inverting summing amplifier:
// nodeOut = -sum(ki * nodeIn_i) with ki > 0. Inputs whose effective weight
// has the wrong sign pass through a unity inverting stage first. The output
// polarity flips.
func (e *elab) summer(c *netlist.Component, weights []float64) error {
	name := c.Name
	vg := e.aux(name + "_vg")
	out := e.nodeFor(c.Out)

	// Effective weights after input polarities.
	eff := make([]float64, len(weights))
	sign := 0.0
	mixed := false
	for i, w := range weights {
		eff[i] = w * e.polOf(c.Inputs[i])
		s := math.Copysign(1, eff[i])
		if eff[i] == 0 {
			continue
		}
		if sign == 0 {
			sign = s
		} else if s != sign {
			mixed = true
		}
	}
	if sign == 0 {
		sign = 1
	}
	for i, w := range eff {
		if w == 0 {
			continue
		}
		in := e.nodeFor(c.Inputs[i])
		if math.Copysign(1, w) != sign {
			// Condition the input through a unity inverter.
			in = e.invert(in, fmt.Sprintf("%s_cond%d", name, i))
			w = -w
		}
		e.ckt.AddR(fmt.Sprintf("%s_ri%d", name, i), in, vg, unitR/math.Abs(w))
	}
	_ = mixed
	e.ckt.AddR(name+"_rf", out, vg, unitR)
	e.ckt.AddOpAmp(name+"_oa", out, Ground, vg, olGain, vSwing)
	// nodeOut = -sign * sum(|w_i| * trueIn_i * ...): polarity = -sign.
	e.pol[c.Out] = -sign
	return nil
}

// pga realizes the programmable-gain amplifier: an inverting stage whose
// feedback resistor is selected by complementary switches.
func (e *elab) pga(c *netlist.Component) error {
	name := c.Name
	in := e.nodeFor(c.Inputs[0])
	out := e.nodeFor(c.Out)
	vg := e.aux(name + "_vg")
	ctrl := e.nodeFor(c.Ctrl)
	ctrlBar := e.invertCtrl(ctrl, name)

	gOn := math.Abs(c.Param("gain_on", 1))
	gOff := math.Abs(c.Param("gain_off", 1))
	e.ckt.AddR(name+"_ri", in, vg, unitR)
	// Two switched feedback branches.
	fbOn := e.aux(name + "_fbon")
	e.ckt.AddR(name+"_rfon", out, fbOn, unitR*gOn)
	e.ckt.AddSwitch(name+"_swon", fbOn, vg, ctrl, Ground, ronSwitch, roffSw, 0)
	fbOff := e.aux(name + "_fboff")
	e.ckt.AddR(name+"_rfoff", out, fbOff, unitR*gOff)
	e.ckt.AddSwitch(name+"_swoff", fbOff, vg, ctrlBar, Ground, ronSwitch, roffSw, 0)
	e.ckt.AddOpAmp(name+"_oa", out, Ground, vg, olGain, vSwing)

	pin := e.polOf(c.Inputs[0])
	sOn := math.Copysign(1, c.Param("gain_on", 1))
	e.pol[c.Out] = -pin * sOn
	return nil
}

// invertCtrl derives the complementary control level with a swapped-input
// comparator stage.
func (e *elab) invertCtrl(ctrl Node, name string) Node {
	out := e.aux(name + "_nctrl")
	e.ckt.AddOpAmp(name+"_noa", out, Ground, ctrl, olGain, ctrlSwing)
	return out
}

// integrator realizes a (summing) inverting RC integrator with unit R and
// per-weight capacitor scaling.
func (e *elab) integrator(c *netlist.Component) error {
	name := c.Name
	vg := e.aux(name + "_vg")
	out := e.nodeFor(c.Out)
	sign := 0.0
	for i := range c.Inputs {
		w := c.Param(fmt.Sprintf("gain%d", i), 1) * e.polOf(c.Inputs[i])
		if w == 0 {
			continue
		}
		s := math.Copysign(1, w)
		if sign == 0 {
			sign = s
		}
		in := e.nodeFor(c.Inputs[i])
		if s != sign {
			in = e.invert(in, fmt.Sprintf("%s_cond%d", name, i))
			w = -w
		}
		// 1/(R*C) = |w| with C fixed: R = 1/(|w|*C).
		const cInt = 1e-6
		e.ckt.AddR(fmt.Sprintf("%s_ri%d", name, i), in, vg, 1/(math.Abs(w)*cInt))
	}
	if sign == 0 {
		sign = 1
	}
	e.ckt.AddC(name+"_c", out, vg, 1e-6, 0)
	e.ckt.AddOpAmp(name+"_oa", out, Ground, vg, olGain, vSwing)
	e.pol[c.Out] = -sign
	return nil
}

// detector realizes comparators and Schmitt triggers as open-loop stages
// against a threshold reference (positive feedback sets the hysteresis of a
// Schmitt stage).
func (e *elab) detector(c *netlist.Component) error {
	name := c.Name
	in := e.nodeFor(c.Inputs[0])
	out := e.nodeFor(c.Out)
	pin := e.polOf(c.Inputs[0])
	th := c.Param("threshold", 0) * pin
	ref := e.aux(name + "_ref")
	e.ckt.AddV(name+"_vref", ref, Ground, func(float64) float64 { return th })

	cp, cm := in, ref
	if pin < 0 {
		cp, cm = cm, cp
	}
	if c.Param("invert", 0) > 0.5 {
		cp, cm = cm, cp
	}
	if c.Cell.Kind == library.CellSchmitt && c.Param("hysteresis", 0) > 0 {
		// Positive feedback divider from the output to the + input:
		// v(fb) = (1-a)*v(in) + a*v(out). With a = hyst/(swing+hyst) the
		// trip points land at threshold ± hyst (exact for a threshold at
		// zero, first-order otherwise).
		hyst := c.Param("hysteresis", 0)
		fb := e.aux(name + "_fb")
		a := hyst / (ctrlSwing + hyst)
		if a > 0.9 {
			a = 0.9
		}
		e.ckt.AddR(name+"_r1", cp, fb, unitR*a/(1-a))
		e.ckt.AddR(name+"_r2", fb, out, unitR)
		cp = fb
	}
	e.ckt.AddOpAmp(name+"_oa", out, cp, cm, olGain, ctrlSwing)
	e.pol[c.Out] = 1
	return nil
}

// mux realizes a 2:1 analog multiplexer with complementary switches
// (input 0 selected while the control is high).
func (e *elab) mux(c *netlist.Component) error {
	name := c.Name
	out := e.nodeFor(c.Out)
	ctrl := e.nodeFor(c.Ctrl)
	ctrlBar := e.invertCtrl(ctrl, name)
	p0, p1 := e.polOf(c.Inputs[0]), e.polOf(c.Inputs[1])
	in0 := e.nodeFor(c.Inputs[0])
	in1 := e.nodeFor(c.Inputs[1])
	if p0 != p1 {
		// Condition input 1 to input 0's polarity.
		in1 = e.invert(in1, name+"_cond1")
		p1 = -p1
	}
	e.ckt.AddSwitch(name+"_sw0", in0, out, ctrl, Ground, ronSwitch, roffSw, 0)
	e.ckt.AddSwitch(name+"_sw1", in1, out, ctrlBar, Ground, ronSwitch, roffSw, 0)
	e.ckt.AddR(name+"_rleak", out, Ground, 1e6)
	e.pol[c.Out] = p0
	return nil
}

// sampleHold realizes input buffer -> switch -> hold cap -> output buffer.
func (e *elab) sampleHold(c *netlist.Component) error {
	name := c.Name
	in := e.nodeFor(c.Inputs[0])
	out := e.nodeFor(c.Out)
	ctrl := e.nodeFor(c.Ctrl)
	buf := e.aux(name + "_buf")
	e.ckt.AddOpAmp(name+"_oain", buf, in, buf, olGain, vSwing)
	hold := e.aux(name + "_hold")
	e.ckt.AddSwitch(name+"_sw", buf, hold, ctrl, Ground, ronSwitch, roffSw, 0)
	e.ckt.AddC(name+"_ch", hold, Ground, 1e-9, 0)
	e.ckt.AddOpAmp(name+"_oaout", out, hold, out, olGain, vSwing)
	e.pol[c.Out] = e.polOf(c.Inputs[0])
	return nil
}

// outputStage realizes the drive stage: polarity restoration, a follower
// saturating at the limit level, and the annotated external load.
func (e *elab) outputStage(c *netlist.Component) error {
	name := c.Name
	in := e.trueNode(c.Inputs[0], name+"_cond")
	out := e.nodeFor(c.Out)
	vmax := c.Param("limit", 0)
	if vmax <= 0 {
		vmax = vSwing
	}
	e.ckt.AddOpAmp(name+"_oa", out, in, out, olGain, vmax)
	if load := c.Param("load", 0); load > 0 {
		e.ckt.AddR(name+"_rload", out, Ground, load)
	}
	e.pol[c.Out] = 1
	return nil
}

// behavioral realizes transcendental computational cells (multipliers,
// log/antilog elements, ADCs, ...) as behavioral sources over true values.
func (e *elab) behavioral(c *netlist.Component) error {
	name := c.Name
	out := e.nodeFor(c.Out)
	var ctrls []Node
	var pols []float64
	for _, in := range c.Inputs {
		ctrls = append(ctrls, e.nodeFor(in))
		pols = append(pols, e.polOf(in))
	}
	kind := c.Cell.Kind
	op := c.Param("op", 0)
	bits := c.Param("bits", 8)
	scale := c.Param("scale", 1)
	// tv is hoisted out of the closure so steady-state evaluation (every
	// Newton iteration touches each behavioral element several times for
	// the numeric Jacobian) allocates nothing. Safe: the simulator calls
	// each element's f sequentially — the parallel AC sweep evaluates
	// behavioral Jacobians only once, while assembling the small-signal
	// system before its fan-out.
	tv := make([]float64, len(ctrls))
	f := func(v []float64) float64 {
		for i := range v {
			tv[i] = v[i] * pols[i]
		}
		switch kind {
		case library.CellMultiplier:
			return tv[0] * tv[1]
		case library.CellDivider:
			den := tv[1]
			if math.Abs(den) < 1e-6 {
				den = math.Copysign(1e-6, den)
			}
			return tv[0] / den
		case library.CellLogAmp:
			x := tv[0]
			if x < 1e-9 {
				x = 1e-9
			}
			return scale * math.Log(x)
		case library.CellAntilogAmp:
			x := tv[0]
			if x > 30 {
				x = 30
			}
			return scale * math.Exp(x)
		case library.CellSqrt:
			return math.Sqrt(math.Max(0, tv[0]))
		case library.CellRectifier:
			return math.Abs(tv[0])
		case library.CellMinMax:
			if op > 0.5 {
				return math.Max(tv[0], tv[1])
			}
			return math.Min(tv[0], tv[1])
		case library.CellSineShaper:
			return math.Sin(tv[0])
		case library.CellADC:
			const fullScale = 2.5
			q := fullScale / math.Exp2(bits-1)
			x := math.Max(-fullScale, math.Min(fullScale, tv[0]))
			return math.Round(x/q) * q
		}
		return 0
	}
	e.ckt.AddFunc(name+"_f", out, ctrls, f)
	e.pol[c.Out] = 1
	return nil
}
