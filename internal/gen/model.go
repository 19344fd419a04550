// Package gen generates well-typed-by-construction VASS specifications
// for differential testing at corpus scale.
//
// A generated specification is built from a Model: a DAG of quantity
// definitions (combinational equations, damped first-order states, guarded
// if-use pairs), finite-state processes watching 'above threshold
// crossings, and input waveform declarations. Well-typedness is structural:
// every equation references only strictly earlier symbols (no algebraic
// loops), every state is a contracting lag s'dot == k*(drive - s), every
// declared object is referenced (no unused-object lint), and every numeric
// value flows through a declared constant.
//
// Because the model — not the rendered text — is the unit of generation,
// the shrinker (shrink.go) mutates models and re-renders, so a shrunken
// reproducer is again well-typed by construction.
//
// Interval arithmetic over the model derives sound waveform bounds for
// every quantity; Build turns those into dense-time assertions (see
// internal/assertlang) embedded as "-- assert:" pragma comments in the
// rendered source.
package gen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"vase/internal/interval"
	"vase/internal/sim"
)

// Interval arithmetic lives in internal/interval, shared with the
// abstract interpreter (internal/absint) so the generator's assertion
// derivation and the static prover can never drift.

// Wave describes an input stimulus. The same description serves the
// behavioral simulator, the MNA circuit simulator (both consume a
// func(t) float64) and the interval analysis.
type Wave struct {
	// Shape is "dc", "sine" or "step".
	Shape string
	// Level is the dc level (Shape "dc").
	Level float64
	// Amp, Freq, Phase describe a sine (Shape "sine").
	Amp, Freq, Phase float64
	// V0, V1, At describe a step from V0 to V1 at time At (Shape "step").
	V0, V1, At float64
}

// Source converts the wave to a simulator input.
func (w Wave) Source() sim.Source {
	switch w.Shape {
	case "sine":
		return sim.Sine(w.Amp, w.Freq, w.Phase)
	case "step":
		return sim.Step(w.V0, w.V1, w.At)
	default:
		return sim.DC(w.Level)
	}
}

// iv is the wave's value hull over any time horizon.
func (w Wave) iv() interval.Interval {
	switch w.Shape {
	case "sine":
		a := math.Abs(w.Amp)
		return interval.Interval{Lo: -a, Hi: a}
	case "step":
		return interval.Interval{Lo: math.Min(w.V0, w.V1), Hi: math.Max(w.V0, w.V1)}
	default:
		return interval.Point(w.Level)
	}
}

// integIV bounds the running integral of the wave; only sine waves (whose
// integral is periodic, hence bounded) support it.
func (w Wave) integIV() (interval.Interval, bool) {
	if w.Shape != "sine" || w.Freq <= 0 {
		return interval.Interval{}, false
	}
	b := math.Abs(w.Amp) / (math.Pi * w.Freq)
	return interval.Interval{Lo: -b, Hi: b}, true
}

// Expression operators.
type opKind int

const (
	opRef   opKind = iota // named symbol (input, quantity or constant)
	opInteg               // input'integ (sine inputs only)
	opAdd
	opSub
	opMul
	opNeg
	opAbs
)

// expr is a tiny expression tree over model symbols.
type expr struct {
	Op   opKind
	Ref  string // opRef / opInteg
	A, B *expr
}

func ref(name string) *expr            { return &expr{Op: opRef, Ref: name} }
func integOf(name string) *expr        { return &expr{Op: opInteg, Ref: name} }
func add(a, b *expr) *expr             { return &expr{Op: opAdd, A: a, B: b} }
func sub(a, b *expr) *expr             { return &expr{Op: opSub, A: a, B: b} }
func mul(a, b *expr) *expr             { return &expr{Op: opMul, A: a, B: b} }
func neg(a *expr) *expr                { return &expr{Op: opNeg, A: a} }
func absOf(a *expr) *expr              { return &expr{Op: opAbs, A: a} }
func gain(cname string, a *expr) *expr { return mul(ref(cname), a) }

func (e *expr) clone() *expr {
	if e == nil {
		return nil
	}
	c := *e
	c.A, c.B = e.A.clone(), e.B.clone()
	return &c
}

// walk visits every node of the tree.
func (e *expr) walk(f func(*expr)) {
	if e == nil {
		return
	}
	f(e)
	e.A.walk(f)
	e.B.walk(f)
}

// render prints the expression with minimal parenthesization. Binary
// operands are wrapped when their precedence is lower than the context's;
// unary minus is always wrapped unless it is the whole expression, since
// "a * -b" is not idiomatic VASS.
func (e *expr) render(ctx int) string {
	switch e.Op {
	case opRef:
		return e.Ref
	case opInteg:
		return e.Ref + "'integ"
	case opAbs:
		return "abs(" + e.A.render(0) + ")"
	case opNeg:
		s := "-" + e.A.render(3)
		if ctx > 0 {
			return "(" + s + ")"
		}
		return s
	case opAdd, opSub:
		op := " + "
		if e.Op == opSub {
			op = " - "
		}
		// Right operand of "-" binds one level tighter so "a - (b + c)"
		// keeps its parentheses.
		rctx := 1
		if e.Op == opSub {
			rctx = 2
		}
		s := e.A.render(1) + op + e.B.render(rctx)
		if ctx >= 2 {
			return "(" + s + ")"
		}
		return s
	case opMul:
		s := e.A.render(2) + " * " + e.B.render(3)
		if ctx >= 3 {
			return "(" + s + ")"
		}
		return s
	}
	panic("gen: unknown expr op")
}

// Quantity definition kinds.
type quantKind int

const (
	qComb    quantKind = iota // q == RHS
	qState                    // q'dot == Rate * (RHS - q)
	qGuarded                  // if (Guard = '1') use q == RHS; else q == Alt
)

// Quant is one free-quantity definition. Definitions are topologically
// ordered: RHS and Alt reference only inputs, constants and quantities
// declared strictly earlier (the quantity itself appears only through the
// integrator of a qState).
type Quant struct {
	Name  string
	Kind  quantKind
	RHS   *expr
	Alt   *expr  // qGuarded else-branch
	Rate  string // qState: constant naming the lag rate
	Guard string // qGuarded: controlling bit signal
}

// Proc is an event-driven process: it watches a threshold crossing of an
// analog symbol and drives one bit signal with the crossing state.
type Proc struct {
	Watch  string // input or quantity name
	Thresh string // constant naming the threshold magnitude
	ThNeg  bool   // threshold is -Thresh
	Signal string // bit signal driven by the process
}

// Out is an output port definition.
type Out struct {
	Name  string
	RHS   *expr
	Limit float64 // "limited at" annotation; 0 = none
}

// In is an input port with its stimulus and optional range annotation.
type In struct {
	Name      string
	Wave      Wave
	Annotated bool // emit "range lo to hi"
}

// Const is a named positive real constant.
type Const struct {
	Name string
	Val  float64
}

// Model is the generator's intermediate form: a complete, well-typed VASS
// design plus everything needed to re-render it after mutation.
type Model struct {
	Entity string
	Inputs []*In
	Consts []*Const
	Quants []*Quant
	Procs  []*Proc
	Outs   []*Out

	// TStop and TStep are the transient horizon the assertions are
	// calibrated for.
	TStop, TStep float64
}

func (m *Model) clone() *Model {
	c := &Model{Entity: m.Entity, TStop: m.TStop, TStep: m.TStep}
	for _, in := range m.Inputs {
		v := *in
		c.Inputs = append(c.Inputs, &v)
	}
	for _, k := range m.Consts {
		v := *k
		c.Consts = append(c.Consts, &v)
	}
	for _, q := range m.Quants {
		v := *q
		v.RHS, v.Alt = q.RHS.clone(), q.Alt.clone()
		c.Quants = append(c.Quants, &v)
	}
	for _, p := range m.Procs {
		v := *p
		c.Procs = append(c.Procs, &v)
	}
	for _, o := range m.Outs {
		v := *o
		v.RHS = o.RHS.clone()
		c.Outs = append(c.Outs, &v)
	}
	return c
}

// intervals computes the sound value hull of every input, quantity and
// output by forward propagation over the definition order.
func (m *Model) intervals() map[string]interval.Interval {
	iv := make(map[string]interval.Interval, len(m.Inputs)+len(m.Quants)+len(m.Outs))
	for _, in := range m.Inputs {
		iv[in.Name] = in.Wave.iv()
	}
	for _, k := range m.Consts {
		iv[k.Name] = interval.Point(k.Val)
	}
	var eval func(e *expr) interval.Interval
	eval = func(e *expr) interval.Interval {
		switch e.Op {
		case opRef:
			return iv[e.Ref]
		case opInteg:
			for _, in := range m.Inputs {
				if in.Name == e.Ref {
					b, _ := in.Wave.integIV()
					return b
				}
			}
			return interval.Interval{}
		case opAdd:
			return eval(e.A).Add(eval(e.B))
		case opSub:
			return eval(e.A).Sub(eval(e.B))
		case opMul:
			return eval(e.A).Mul(eval(e.B))
		case opNeg:
			return eval(e.A).Neg()
		case opAbs:
			return eval(e.A).Abs()
		}
		return interval.Interval{}
	}
	for _, q := range m.Quants {
		switch q.Kind {
		case qComb:
			iv[q.Name] = eval(q.RHS)
		case qState:
			// s'dot == k*(drive - s) with s(0) = 0 keeps s inside the
			// hull of {0} and the drive's range (a contracting lag is a
			// convex combination of past drive values and the initial
			// state).
			iv[q.Name] = eval(q.RHS).Hull(interval.Point(0))
		case qGuarded:
			iv[q.Name] = eval(q.RHS).Hull(eval(q.Alt))
		}
	}
	for _, o := range m.Outs {
		iv[o.Name] = eval(o.RHS)
	}
	return iv
}

// lit renders a float as a VASS real literal (always with a decimal point
// or exponent) using the shortest round-trip form, so rendering is
// deterministic and re-parseable.
func lit(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// Render prints the model as VASS source text (without assertion pragmas;
// Build prepends those).
func (m *Model) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "entity %s is\n  port (\n", m.Entity)
	var ports []string
	for _, in := range m.Inputs {
		decl := fmt.Sprintf("    quantity %s : in real is voltage", in.Name)
		if in.Annotated {
			r := in.Wave.iv()
			pad := 0.05*r.Span() + 0.05
			decl += fmt.Sprintf(" range %s to %s", lit(r.Lo-pad), lit(r.Hi+pad))
		}
		ports = append(ports, decl)
	}
	for _, o := range m.Outs {
		decl := fmt.Sprintf("    quantity %s : out real is voltage", o.Name)
		if o.Limit > 0 {
			decl += fmt.Sprintf(" limited at %s", lit(o.Limit))
		}
		ports = append(ports, decl)
	}
	b.WriteString(strings.Join(ports, ";\n"))
	b.WriteString("\n  );\nend entity;\n\n")

	fmt.Fprintf(&b, "architecture gen of %s is\n", m.Entity)
	for _, k := range m.Consts {
		fmt.Fprintf(&b, "  constant %s : real := %s;\n", k.Name, lit(k.Val))
	}
	if len(m.Quants) > 0 {
		names := make([]string, len(m.Quants))
		for i, q := range m.Quants {
			names[i] = q.Name
		}
		fmt.Fprintf(&b, "  quantity %s : real;\n", strings.Join(names, ", "))
	}
	if len(m.Procs) > 0 {
		names := make([]string, len(m.Procs))
		for i, p := range m.Procs {
			names[i] = p.Signal
		}
		fmt.Fprintf(&b, "  signal %s : bit;\n", strings.Join(names, ", "))
	}
	b.WriteString("begin\n")
	for _, q := range m.Quants {
		switch q.Kind {
		case qComb:
			fmt.Fprintf(&b, "  %s == %s;\n", q.Name, q.RHS.render(0))
		case qState:
			fmt.Fprintf(&b, "  %s'dot == %s * (%s - %s);\n", q.Name, q.Rate, q.RHS.render(1), q.Name)
		case qGuarded:
			fmt.Fprintf(&b, "  if (%s = '1') use %s == %s;\n  else %s == %s;\n  end use;\n",
				q.Guard, q.Name, q.RHS.render(0), q.Name, q.Alt.render(0))
		}
	}
	for _, o := range m.Outs {
		fmt.Fprintf(&b, "  %s == %s;\n", o.Name, o.RHS.render(0))
	}
	for _, p := range m.Procs {
		th := p.Thresh
		if p.ThNeg {
			th = "-" + th
		}
		fmt.Fprintf(&b, "  process (%s'above(%s)) is begin\n", p.Watch, th)
		fmt.Fprintf(&b, "    if (%s'above(%s) = true) then %s <= '1';\n", p.Watch, th, p.Signal)
		fmt.Fprintf(&b, "    else %s <= '0'; end if;\n", p.Signal)
		fmt.Fprintf(&b, "  end process;\n")
	}
	b.WriteString("end architecture;\n")
	return b.String()
}

// assertions derives sound dense-time properties from the interval
// analysis and the input waveform structure. Every returned line is a
// valid assertlang source; Build validates them by reparsing.
func (m *Model) assertions() []string {
	iv := m.intervals()
	var out []string
	bound := func(name string, r interval.Interval) {
		pad := 0.05*r.Span() + 0.05 + 0.02*r.MaxAbs()
		out = append(out, fmt.Sprintf("bound %s in %s .. %s", name, lit(r.Lo-pad), lit(r.Hi+pad)))
	}
	for _, o := range m.Outs {
		bound(o.Name, iv[o.Name])
	}
	// Waveform-shape assertions attach to outputs that are pure copies of
	// an input (the generator plants such monitor ports): unlike internal
	// nets — whose names pattern folding may rewrite — output ports are
	// stable probe targets in every simulator.
	for _, o := range m.Outs {
		if o.RHS.Op != opRef {
			continue
		}
		for _, in := range m.Inputs {
			if in.Name != o.RHS.Ref {
				continue
			}
			switch w := in.Wave; w.Shape {
			case "sine":
				if w.Freq > 0 {
					// The sine is nonnegative for half of every period,
					// so the longest gap between holding samples is half
					// a period plus sampling slack — well inside 1.5
					// periods.
					out = append(out, fmt.Sprintf("recurrence v(%s) >= 0 every %s", o.Name, lit(1.5/w.Freq)))
				}
			case "step":
				if w.At > 0 && w.At < m.TStop && w.V1 != w.V0 {
					eps := 1e-6 + 0.001*math.Abs(w.V1)
					win := w.At + 0.05*m.TStop
					cmp, lvl := ">=", w.V1-eps
					if w.V1 < w.V0 {
						cmp, lvl = "<=", w.V1+eps
					}
					out = append(out, fmt.Sprintf("eventually v(%s) %s %s within %s", o.Name, cmp, lit(lvl), lit(win)))
				}
			}
		}
	}
	return out
}

// refCounts returns how often each input, quantity and signal name is
// referenced by equations, guards, process watches and outputs.
func (m *Model) refCounts() map[string]int {
	n := make(map[string]int)
	count := func(e *expr) {
		e.walk(func(x *expr) {
			if x.Op == opRef || x.Op == opInteg {
				n[x.Ref]++
			}
		})
	}
	for _, q := range m.Quants {
		count(q.RHS)
		count(q.Alt)
		if q.Kind == qGuarded {
			n[q.Guard]++
		}
	}
	for _, o := range m.Outs {
		count(o.RHS)
	}
	for _, p := range m.Procs {
		n[p.Watch]++
	}
	return n
}

// sortedNames is a deterministic ordering helper for diagnostics.
func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
