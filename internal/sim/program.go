package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
)

// program is a VHIF module or a netlist lowered once for one transient
// run. Every net is a slot of vals, every block or cell is one op whose
// parameters were resolved during lowering, and every dynamic element is
// one RK4 state. Both behavioral levels lower to it, so they share one
// evaluator, one derivative pass, one discrete update, one probe binder
// and one RK4 loop.
//
// Each op keeps its element's order of arithmetic: sums start from 0 and
// products from 1. Ops run in a fixed order: a module's blocks graph by
// graph in topological order; a netlist's constant nets, then its input
// sources, then its cells in topological order. vals is cleared before
// every evaluation, so a net read before its driver runs reads 0. These
// rules keep both levels' traces bit for bit what TestBehavioralTraceDigests
// records.
type program struct {
	opts  Options
	steps int    // integration steps of the full window
	label string // names the state vector in divergence errors

	vals    []float64 // one slot per net; slot 0 is never written and reads 0
	ops     []op
	states  []state
	latches []latch

	rec    []recorded     // probes recorded into the trace, by name
	byName map[string]int // any net name to its slot, for OnSample

	// x is the state vector; xs and k1..k4 are the RK4 scratch.
	x, xs, k1, k2, k3, k4 []float64
}

// opcode selects an op's arithmetic.
type opcode uint8

const (
	opConst  opcode = iota // k
	opSource               // src(t)
	opScale                // k * a
	opSum                  // sum of w[i] * in[i], from 0
	opProd                 // product of in[i], from 1
	opSub                  // a - b
	opNeg                  // -a
	opDiv                  // a / b, guarded
	opLog                  // k * log(a), guarded
	opExp                  // k * exp(a), clamped
	opSqrt                 // sqrt(max(0, a))
	opSin                  // sin(a)
	opCos                  // cos(a)
	opAbs                  // |a|
	opMin                  // min(a, b)
	opMax                  // max(a, b)
	opSign                 // signum(a)
	opNot                  // control inverter
	opSwitch               // a while ctrl, else 0
	opMux                  // a while ctrl, else b
	opPGA                  // k * a while ctrl, else k2 * a
	opADC                  // a clipped to the full scale, quantized to steps of k
	opClip                 // a clipped to [-k, k]
	opState                // x[idx] / k
	opCmp                  // latch idx's comparator output, inverted by inv
	opHold                 // latch idx's held sample
	opDiff                 // (a - latch idx's start-of-step input) / TStep
)

// op is one block or cell: it writes slot out from its input slots.
type op struct {
	code  opcode
	out   int
	a, b  int // first and second input slots
	ctrl  int
	k, k2 float64
	in    []int     // input slots of opSum and opProd
	w     []float64 // weights of opSum
	src   Source
	idx   int // state offset (opState) or latch index
	inv   bool
}

// stateKind selects a dynamic element's derivative.
type stateKind uint8

const (
	// stateIntegrator: x' = sum of w[i] * in[i], from 0.
	stateIntegrator stateKind = iota
	// stateLag is a first-order lag with pole k: x' = k * (a - x).
	stateLag
	// stateBandPass is a state-variable band-pass with center k and
	// quality q over the states (bp, lp).
	stateBandPass
)

// state is one dynamic element, owning x[off] (and x[off+1] for a
// band-pass).
type state struct {
	kind stateKind
	off  int
	a    int
	in   []int
	w    []float64
	k, q float64
}

// latchKind selects a discrete element's update.
type latchKind uint8

const (
	latchComparator latchKind = iota
	latchSampleHold
	latchDifferentiator
)

// latch is one discrete element, updated only at step boundaries: a
// comparator with hysteresis, a clocked sample-and-hold, or a
// differentiator's memory of its input at the start of the step.
type latch struct {
	kind     latchKind
	in, ctrl int
	th       float64 // comparator threshold; lo and hi bound its hysteresis band
	lo, hi   float64
	on       bool    // comparator state
	v        float64 // held sample or start-of-step input
}

// recorded is one probe's series.
type recorded struct {
	name    string
	slot    int
	samples []float64
}

// newProgram starts the lowering of a run over opts' window. The step
// count must be a representable int; the comparison also rejects NaN and
// +Inf (TStop/TStep overflowing float64).
func newProgram(opts Options, label string) (*program, error) {
	if opts.TStop <= 0 || opts.TStep <= 0 {
		return nil, fmt.Errorf("sim: TStop and TStep must be positive")
	}
	n := math.Ceil(opts.TStop / opts.TStep)
	if !(n < math.MaxInt) {
		return nil, fmt.Errorf("sim: TStop/TStep = %g steps is not a representable step count", n)
	}
	return &program{opts: opts, steps: int(n) + 1, label: label, vals: make([]float64, 1)}, nil
}

// newSlot allocates a slot of vals.
func (p *program) newSlot() int {
	p.vals = append(p.vals, 0)
	return len(p.vals) - 1
}

// slotter returns a function assigning every distinct net a slot on first
// use; the nil net reads the zero slot.
func slotter[N comparable](p *program) func(N) int {
	slots := map[N]int{}
	return func(n N) int {
		var none N
		if n == none {
			return 0
		}
		s, ok := slots[n]
		if !ok {
			s = p.newSlot()
			slots[n] = s
		}
		return s
	}
}

// emit appends o unless it writes no net.
func (p *program) emit(o op) {
	if o.out != 0 {
		p.ops = append(p.ops, o)
	}
}

// addState appends a dynamic element owning n entries of the state vector
// and returns its offset.
func (p *program) addState(s state, n int) int {
	s.off = len(p.x)
	p.states = append(p.states, s)
	p.x = append(p.x, make([]float64, n)...)
	return s.off
}

// addLatch appends a discrete element and returns its index.
func (p *program) addLatch(l latch) int {
	p.latches = append(p.latches, l)
	return len(p.latches) - 1
}

// bind records the probes (name to slot) and resolves OnSample names
// through byName: the design's nets by name, overlaid with the probes.
// A requested probe naming none of them is an error listing the valid
// names, so a typo is immediately actionable.
func (p *program) bind(requested []string, probes, byName map[string]int) error {
	names := make([]string, 0, len(probes))
	for name, s := range probes {
		byName[name] = s
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p.rec = append(p.rec, recorded{name: name, slot: probes[name]})
	}
	p.byName = byName
	var missing []string
	for _, name := range requested {
		if _, ok := byName[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	valid := make([]string, 0, len(byName))
	for name := range byName {
		valid = append(valid, name)
	}
	sort.Strings(valid)
	sort.Strings(missing)
	return fmt.Errorf("sim: unknown probe net%s %s (valid nets: %s)",
		plural(len(missing)), strings.Join(missing, ", "), strings.Join(valid, ", "))
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// run integrates the program over its window. Cancellation and the step
// budget stop it between steps with the samples so far and
// Trace.Truncated set.
func (p *program) run(ctx context.Context) (*Trace, error) {
	p.start()
	tr := &Trace{Signals: map[string][]float64{}}
	probe := func(name string) (float64, bool) {
		s, ok := p.byName[name]
		return p.vals[s], ok
	}
	h := p.opts.TStep
	for step := 0; step < p.steps; step++ {
		if p.opts.MaxSteps > 0 && step >= p.opts.MaxSteps || ctx.Err() != nil {
			tr.Truncated = true
			break
		}
		t := float64(step) * h
		p.eval(t, p.x)
		tr.Time = append(tr.Time, t)
		for i := range p.rec {
			p.rec[i].samples = append(p.rec[i].samples, p.vals[p.rec[i].slot])
		}
		if p.opts.OnSample != nil {
			// vals holds this instant until step evaluates again.
			p.opts.OnSample(t, probe)
		}
		if err := p.step(t); err != nil {
			return nil, err
		}
	}
	if len(tr.Time) > 0 {
		for _, r := range p.rec {
			tr.Signals[r.name] = r.samples
		}
	}
	return tr, nil
}

// step advances the state by one classic RK4 step from t, where vals
// holds the evaluation at t: the differentiators latch their inputs, the
// state integrates, and the comparators and sample-and-holds update from
// the end-of-step values.
func (p *program) step(t float64) error {
	h, x := p.opts.TStep, p.x
	for i := range p.latches {
		if l := &p.latches[i]; l.kind == latchDifferentiator {
			l.v = p.vals[l.in]
		}
	}
	p.derivs(t, x, p.k1)
	axpy(p.xs, x, p.k1, h/2)
	p.derivs(t+h/2, p.xs, p.k2)
	axpy(p.xs, x, p.k2, h/2)
	p.derivs(t+h/2, p.xs, p.k3)
	axpy(p.xs, x, p.k3, h)
	p.derivs(t+h, p.xs, p.k4)
	for i := range x {
		x[i] += h / 6 * (p.k1[i] + 2*p.k2[i] + 2*p.k3[i] + p.k4[i])
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return fmt.Errorf("sim: %s %d diverged at t=%g", p.label, i, t)
		}
	}
	p.eval(t+h, x)
	for i := range p.latches {
		l := &p.latches[i]
		switch l.kind {
		case latchComparator:
			v := p.vals[l.in]
			if l.on {
				if v < l.lo {
					l.on = false
				}
			} else if v > l.hi {
				l.on = true
			}
		case latchSampleHold:
			if p.vals[l.ctrl] > 0.5 {
				l.v = p.vals[l.in]
			}
		}
	}
	return nil
}

// start allocates the RK4 scratch and primes the discrete state from the
// t=0 values, so a design does not start on the wrong side of its
// thresholds.
func (p *program) start() {
	n := len(p.x)
	p.xs, p.k1, p.k2, p.k3, p.k4 = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	p.eval(0, p.x)
	for i := range p.latches {
		l := &p.latches[i]
		if l.kind == latchComparator {
			l.on = p.vals[l.in] > l.th
		} else {
			l.v = p.vals[l.in]
		}
	}
}

// axpy sets dst = x + h*d.
func axpy(dst, x, d []float64, h float64) {
	for i := range x {
		dst[i] = x[i] + h*d[i]
	}
}

// derivs evaluates the program at (t, x) and writes the state
// derivatives to d.
func (p *program) derivs(t float64, x, d []float64) {
	p.eval(t, x)
	v := p.vals
	for i := range p.states {
		s := &p.states[i]
		switch s.kind {
		case stateIntegrator:
			sum := 0.0
			for j, in := range s.in {
				sum += s.w[j] * v[in]
			}
			d[s.off] = sum
		case stateLag:
			d[s.off] = s.k * (v[s.a] - x[s.off])
		case stateBandPass:
			bp, lp := x[s.off], x[s.off+1]
			hp := v[s.a] - lp - bp/s.q
			d[s.off] = s.k * hp
			d[s.off+1] = s.k * bp
		}
	}
}

// eval computes every net value for state x at time t.
func (p *program) eval(t float64, x []float64) {
	v := p.vals
	clear(v)
	for i := range p.ops {
		o := &p.ops[i]
		var out float64
		switch o.code {
		case opConst:
			out = o.k
		case opSource:
			out = o.src(t)
		case opScale:
			out = o.k * v[o.a]
		case opSum:
			for j, in := range o.in {
				out += o.w[j] * v[in]
			}
		case opProd:
			out = 1
			for _, in := range o.in {
				out *= v[in]
			}
		case opSub:
			out = v[o.a] - v[o.b]
		case opNeg:
			out = -v[o.a]
		case opDiv:
			out = safeDiv(v[o.a], v[o.b])
		case opLog:
			out = o.k * safeLog(v[o.a])
		case opExp:
			out = o.k * clampExp(v[o.a])
		case opSqrt:
			out = math.Sqrt(math.Max(0, v[o.a]))
		case opSin:
			out = math.Sin(v[o.a])
		case opCos:
			out = math.Cos(v[o.a])
		case opAbs:
			out = math.Abs(v[o.a])
		case opMin:
			out = math.Min(v[o.a], v[o.b])
		case opMax:
			out = math.Max(v[o.a], v[o.b])
		case opSign:
			switch {
			case v[o.a] > 0:
				out = 1
			case v[o.a] < 0:
				out = -1
			}
		case opNot:
			out = boolv(!(v[o.a] > 0.5))
		case opSwitch:
			if v[o.ctrl] > 0.5 {
				out = v[o.a]
			}
		case opMux:
			out = v[o.b]
			if v[o.ctrl] > 0.5 {
				out = v[o.a]
			}
		case opPGA:
			g := o.k2
			if v[o.ctrl] > 0.5 {
				g = o.k
			}
			out = g * v[o.a]
		case opADC:
			const fullScale = 2.5
			a := math.Max(-fullScale, math.Min(fullScale, v[o.a]))
			out = math.Round(a/o.k) * o.k
		case opClip:
			out = math.Max(-o.k, math.Min(o.k, v[o.a]))
		case opState:
			out = x[o.idx] / o.k
		case opCmp:
			out = boolv(p.latches[o.idx].on != o.inv)
		case opHold:
			out = p.latches[o.idx].v
		case opDiff:
			out = (v[o.a] - p.latches[o.idx].v) / p.opts.TStep
		}
		v[o.out] = out
	}
}

func boolv(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// adcStep is the quantization step of a bits-bit converter over ±2.5 V.
func adcStep(bits float64) float64 {
	const fullScale = 2.5
	return fullScale / math.Exp2(bits-1)
}

// bandpassQ derives a band-pass quality factor from its corners:
// Q = f0 / bandwidth, floored for stability.
func bandpassQ(fhi, flo float64) float64 {
	f0 := math.Sqrt(fhi * flo)
	bw := fhi - flo
	if bw <= 0 {
		return 1
	}
	q := f0 / bw
	if q < 0.3 {
		q = 0.3
	}
	return q
}

// clampExp guards exponential blocks against overflow.
func clampExp(x float64) float64 {
	if x > 50 {
		x = 50
	}
	if x < -50 {
		x = -50
	}
	return math.Exp(x)
}

// safeLog guards log blocks against non-positive inputs (a real log amp
// saturates).
func safeLog(x float64) float64 {
	const eps = 1e-12
	if x < eps {
		x = eps
	}
	return math.Log(x)
}

// safeDiv guards dividers against tiny denominators.
func safeDiv(num, den float64) float64 {
	const eps = 1e-9
	if math.Abs(den) < eps {
		if den < 0 {
			den = -eps
		} else {
			den = eps
		}
	}
	return num / den
}
