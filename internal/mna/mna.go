// Package mna implements a small analog circuit simulator based on
// modified nodal analysis: resistors, capacitors, independent and
// controlled sources, diodes, voltage-controlled switches, and saturating
// op-amp macromodels, with Newton-Raphson DC solution and fixed-step
// backward-Euler transient analysis.
//
// It substitutes for the SPICE runs of the paper's Section 6: synthesized
// netlists elaborate into op-amp macromodel circuits (see Elaborate) whose
// transient response reproduces the receiver experiment of Figure 8 —
// amplification, comparator-controlled gain switching, and diode clipping
// of the output stage.
//
// The linear-algebra core is built around structure reuse: a stamp plan
// records once per circuit which matrix slots every device touches, the
// elimination structure (including fill) is analyzed symbolically once, and
// every subsequent Newton iteration restamps and refactors in place inside
// preallocated CSR storage with zero steady-state allocation. The exact
// tier's solutions are bit-identical to the reference eliminator's (see
// factor.go for the argument).
package mna

import (
	"context"
	"fmt"
	"math"
)

// Node identifies a circuit node; 0 is ground.
type Node int

// Ground is the reference node.
const Ground Node = 0

// Waveform is a time-dependent source value.
type Waveform func(t float64) float64

// deviceKind enumerates element types.
type deviceKind int

const (
	dResistor deviceKind = iota
	dCapacitor
	dVSource
	dISource
	dVCVS
	dDiode
	dSwitch
	dOpAmp
	dFunc
)

// device is one circuit element.
type device struct {
	kind deviceKind
	name string
	// Terminals (interpretation depends on kind).
	a, b, cp, cm Node
	// value: R ohms, C farads, VCVS gain.
	value float64
	// wave drives independent sources.
	wave Waveform
	// ic is the capacitor initial voltage.
	ic float64
	// prevI is the capacitor's previous-step current (trapezoidal rule).
	prevI float64
	// Diode parameters.
	isat, vt float64
	// Switch parameters.
	ron, roff, vth float64
	// Op amp parameters: open-loop gain and saturation.
	gain, vmax float64
	// Newton limiting memory (pnjlim-style) for the op amp knee.
	lastVc  float64
	hasLast bool
	// branch is the extra MNA variable index for sources/op amps.
	branch int
	// f is the nonlinear function of a dFunc element; ctrl its inputs.
	f    func(v []float64) float64
	ctrl []Node
}

// Method selects the transient integration scheme.
type Method int

// Integration methods.
const (
	// BackwardEuler is robust and strongly damped (the default).
	BackwardEuler Method = iota
	// Trapezoidal is second-order accurate with no numerical damping.
	Trapezoidal
)

// SolverMode selects the linear-solver tier backing DC, transient and AC
// analyses. SolverAuto and SolverReference produce bit-identical solutions
// and differ only in speed and allocation behavior; SolverFast trades
// byte-identity for speed under a contractual ErrorBudget (see compare.go).
type SolverMode int

const (
	// SolverAuto is the exact tier (the default): the stamp plan's
	// in-place CSR LU with elimination replay, bit-identical to
	// SolverReference on every circuit size.
	SolverAuto SolverMode = iota
	// SolverReference selects the original allocate-per-solve dense
	// eliminator, kept as the oracle for equivalence tests.
	SolverReference
	// SolverFast selects the tolerance-tier engine: fill-reducing
	// threshold-Markowitz ordering, a static fill-closed elimination
	// schedule free to reorder arithmetic and skip numerically-dead work,
	// and factorization reuse across Newton iterations and timesteps
	// (chord Newton in residual form). Results are deterministic but not
	// byte-identical to the other tiers; they are guaranteed to stay
	// within Circuit.Budget of the SolverReference trace (fast.go,
	// ordering.go).
	SolverFast
)

// String returns the tier's tool-level name: reference, exact or fast.
func (m SolverMode) String() string {
	switch m {
	case SolverReference:
		return "reference"
	case SolverFast:
		return "fast"
	default:
		return "exact"
	}
}

// SolverStats counts the work done by the linear-algebra core of a circuit
// across all DC, transient and AC analyses run on it.
type SolverStats struct {
	// NewtonIterations counts nonlinear iterations across all solves.
	NewtonIterations int64
	// Factorizations counts LU factorizations: one per Newton iteration
	// plus one per AC frequency point.
	Factorizations int64
	// FactorReuses counts SolverFast Newton iterations that reused the
	// previous factorization instead of refactoring (chord steps).
	FactorReuses int64
	// Orderings counts SolverFast fill-reducing symbolic orderings
	// (one per stamp plan, plus one per pivot-monitor-forced reorder).
	Orderings int64
	// Fallbacks counts SolverFast solve points that exhausted the fast
	// Newton budget and were re-solved by the exact tier's loop.
	Fallbacks int64
	// PeakDim is the largest reduced-system dimension solved.
	PeakDim int
	// Nonzeros is the number of stamped matrix slots; Fill is the number
	// of extra slots added by the adaptive elimination analysis.
	Nonzeros, Fill int
}

// String renders the stats as a one-line summary, the format behind the
// vasesim -stats flag.
func (s SolverStats) String() string {
	plan := "dense" // the reference eliminator builds no plan
	if s.Nonzeros > 0 {
		plan = fmt.Sprintf("sparse (%d stamped + %d fill)", s.Nonzeros, s.Fill)
	}
	out := fmt.Sprintf("dim %d %s, %d newton iterations, %d factorizations",
		s.PeakDim, plan, s.NewtonIterations, s.Factorizations)
	if s.FactorReuses > 0 || s.Orderings > 0 {
		out += fmt.Sprintf(", %d reused, %d orderings", s.FactorReuses, s.Orderings)
	}
	if s.Fallbacks > 0 {
		out += fmt.Sprintf(", %d exact fallbacks", s.Fallbacks)
	}
	return out
}

// Circuit is a netlist of MNA devices.
type Circuit struct {
	names   map[string]Node
	nodes   int // highest node index
	devices []*device
	// method is the transient integration scheme.
	method Method

	// MaxNewtonIter bounds the Newton iteration count per solve point
	// (0 = the default of 300). Exceeding it is a convergence error.
	MaxNewtonIter int
	// MaxTranSteps bounds the number of transient steps (0 = unlimited).
	// When it binds the transient returns the truncated trace computed so
	// far with Tran.Truncated set, not an error.
	MaxTranSteps int

	// Solver selects the linear-solver tier (see SolverMode).
	Solver SolverMode
	// Workers bounds the AC-sweep fan-out (0 = all CPUs, 1 = sequential).
	// It applies to AC only: DC and transient analyses run on one
	// goroutine. Every worker count produces the identical sweep.
	Workers int
	// Budget is the SolverFast error budget: the fast tier's traces are
	// guaranteed to stay within it of the SolverReference traces,
	// point for point (zero fields take the documented defaults; other
	// solver modes ignore it).
	Budget ErrorBudget

	// OnSample, when set, is called once per recorded transient sample with
	// the sample time and the solution vector (node voltages indexed by
	// Node, branch currents after them). It is the attachment point for
	// streaming assertion monitors (internal/assertlang), which observe
	// even the samples of a run later truncated by cancellation. The
	// callback must not retain the slice: it is the live iterate buffer.
	OnSample func(t float64, v Solution)

	// sol is the cached stamp plan + factorization workspace, rebuilt when
	// the device list or dimension changes.
	sol   *solver
	stats SolverStats
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{
		names: map[string]Node{"0": Ground, "gnd": Ground},
	}
}

// SetMethod selects the transient integration scheme.
func (c *Circuit) SetMethod(m Method) { c.method = m }

// SolverStats reports the cumulative linear-algebra work done by this
// circuit's analyses so far.
func (c *Circuit) SolverStats() SolverStats { return c.stats }

// NodeByName interns a named node.
func (c *Circuit) NodeByName(name string) Node {
	if n, ok := c.names[name]; ok {
		return n
	}
	c.nodes++
	n := Node(c.nodes)
	c.names[name] = n
	return n
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return c.nodes }

func (c *Circuit) track(ns ...Node) {
	for _, n := range ns {
		if int(n) > c.nodes {
			c.nodes = int(n)
		}
	}
}

// AddR connects a resistor between a and b.
func (c *Circuit) AddR(name string, a, b Node, ohms float64) {
	c.track(a, b)
	c.devices = append(c.devices, &device{kind: dResistor, name: name, a: a, b: b, value: ohms})
}

// AddC connects a capacitor with an initial voltage.
func (c *Circuit) AddC(name string, a, b Node, farads, ic float64) {
	c.track(a, b)
	c.devices = append(c.devices, &device{kind: dCapacitor, name: name, a: a, b: b, value: farads, ic: ic})
}

// AddV connects an independent voltage source (a positive w.r.t. b).
func (c *Circuit) AddV(name string, a, b Node, wave Waveform) {
	c.track(a, b)
	c.devices = append(c.devices, &device{kind: dVSource, name: name, a: a, b: b, wave: wave})
}

// AddI connects an independent current source flowing from a to b.
func (c *Circuit) AddI(name string, a, b Node, wave Waveform) {
	c.track(a, b)
	c.devices = append(c.devices, &device{kind: dISource, name: name, a: a, b: b, wave: wave})
}

// AddVCVS connects a linear voltage-controlled voltage source:
// V(a,b) = gain * V(cp,cm).
func (c *Circuit) AddVCVS(name string, a, b, cp, cm Node, gain float64) {
	c.track(a, b, cp, cm)
	c.devices = append(c.devices, &device{kind: dVCVS, name: name, a: a, b: b, cp: cp, cm: cm, value: gain})
}

// AddDiode connects a diode (anode a, cathode b).
func (c *Circuit) AddDiode(name string, a, b Node) {
	c.track(a, b)
	c.devices = append(c.devices, &device{kind: dDiode, name: name, a: a, b: b, isat: 1e-14, vt: 0.02585})
}

// AddSwitch connects a voltage-controlled switch between a and b, closed
// when V(cp,cm) > vth.
func (c *Circuit) AddSwitch(name string, a, b, cp, cm Node, ron, roff, vth float64) {
	c.track(a, b, cp, cm)
	c.devices = append(c.devices, &device{
		kind: dSwitch, name: name, a: a, b: b, cp: cp, cm: cm,
		ron: ron, roff: roff, vth: vth,
	})
}

// AddOpAmp connects a saturating op-amp macromodel: a single-ended output
// at node a driven to vmax*tanh(gain*V(cp,cm)/vmax).
func (c *Circuit) AddOpAmp(name string, a, cp, cm Node, gain, vmax float64) {
	c.track(a, cp, cm)
	c.devices = append(c.devices, &device{
		kind: dOpAmp, name: name, a: a, cp: cp, cm: cm, gain: gain, vmax: vmax,
	})
}

// AddFunc connects a behavioral voltage source: V(a) = f(V(ctrl[0]), ...).
// It models computational cells (multipliers, log elements) whose
// transistor-level detail is outside the macromodel scope.
func (c *Circuit) AddFunc(name string, a Node, ctrl []Node, f func(v []float64) float64) {
	c.track(a)
	c.track(ctrl...)
	c.devices = append(c.devices, &device{kind: dFunc, name: name, a: a, ctrl: ctrl, f: f})
}

// assignBranches numbers the extra MNA variables.
func (c *Circuit) assignBranches() int {
	nb := 0
	for _, d := range c.devices {
		switch d.kind {
		case dVSource, dVCVS, dOpAmp, dFunc:
			d.branch = c.nodes + 1 + nb
			nb++
		}
	}
	return nb
}

// Solution is one operating point: index 1..NumNodes are node voltages.
type Solution []float64

// V returns the voltage of node n.
func (s Solution) V(n Node) float64 {
	if n == Ground || int(n) >= len(s) {
		return 0
	}
	return s[n]
}

// ---------------------------------------------------------------------------
// Device linearization. These helpers hold the per-iteration companion
// models shared by the plan-based and reference stamping paths, so the two
// cannot drift numerically.

// diodeLinearize returns the small-signal conductance and equivalent
// current of the diode at junction voltage v.
func (d *device) diodeLinearize(v float64) (g, ieq float64) {
	// Limit the junction voltage for convergence.
	if v > 0.9 {
		v = 0.9
	}
	e := math.Exp(v / d.vt)
	i := d.isat * (e - 1)
	g = d.isat * e / d.vt
	if g < 1e-12 {
		g = 1e-12
	}
	return g, i - g*v
}

// switchR returns the switch resistance for the control voltage vc.
func (d *device) switchR(vc float64) float64 {
	if vc > d.vth {
		return d.ron
	}
	return d.roff
}

// opampLinearize returns the linearized gain and right-hand side of the
// saturating op-amp characteristic at control voltage vc, updating the
// per-device Newton limiting memory.
func (d *device) opampLinearize(vc float64) (dg, rhs float64) {
	knee := d.vmax / d.gain
	// Deep saturation is flat: clamping the linearization point to
	// ±20 knee widths leaves the model output unchanged but keeps
	// the point a few iterations away from the active region.
	if vc > 20*knee {
		vc = 20 * knee
	} else if vc < -20*knee {
		vc = -20 * knee
	}
	// Limit the per-iteration excursion to a few knee widths
	// (SPICE junction-limiting style) so Newton cannot jump across
	// the knee and oscillate.
	if d.hasLast {
		lim := 4 * knee
		if vc > d.lastVc+lim {
			vc = d.lastVc + lim
		} else if vc < d.lastVc-lim {
			vc = d.lastVc - lim
		}
	}
	d.lastVc = vc
	d.hasLast = true
	arg := d.gain * vc / d.vmax
	out := d.vmax * math.Tanh(arg)
	// Derivative of the saturating characteristic.
	sech := 1 / math.Cosh(arg)
	dg = d.gain * sech * sech
	// Equation: V(a) - (out + dg*(vc' - vc)) = 0.
	return dg, out - dg*vc
}

// funcLinearize evaluates the behavioral element around x: scratch receives
// the control voltages (len(d.ctrl)), dps the numeric Jacobian per control
// (0 for grounded controls), and the return value is the right-hand side of
// the linearized branch equation.
func (d *device) funcLinearize(x Solution, scratch, dps []float64) float64 {
	for i, n := range d.ctrl {
		scratch[i] = x.V(n)
	}
	out := d.f(scratch)
	rhs := out
	const eps = 1e-6
	for i, n := range d.ctrl {
		if n == Ground {
			dps[i] = 0
			continue
		}
		scratch[i] += eps
		dp := (d.f(scratch) - out) / eps
		scratch[i] -= eps
		dps[i] = dp
		rhs -= dp * scratch[i]
	}
	return rhs
}

// ---------------------------------------------------------------------------
// Newton iteration.

const (
	defaultNewtonIter = 300
	newtonMaxChange   = 0.5 // volts per Newton step
	newtonTol         = 1e-8
)

// newtonFast iterates the nonlinear system to convergence with a damped
// update: the per-iteration voltage change is limited so that the
// saturating op-amp and diode characteristics cannot make the iteration
// oscillate across their knees. Cancellation is observed between
// iterations, so no solve can hold its goroutine past the caller's deadline
// by more than one iteration.
//
// dst is the caller's iterate buffer (len s.dim+1); the converged solution
// is returned aliasing dst. The loop allocates nothing: stamping writes
// through the plan's precomputed slots and the factorization runs in place
// inside the solver workspace (pinned by TestNewtonZeroAllocs).
func (c *Circuit) newtonFast(ctx context.Context, s *solver, dst, x0, prev Solution, t, h float64) (Solution, error) {
	copy(dst, x0)
	for _, d := range c.devices {
		d.hasLast = false
	}
	maxIter := c.MaxNewtonIter
	if maxIter <= 0 {
		maxIter = defaultNewtonIter
	}
	next := s.next
	for iter := 0; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mna: solve at t=%g cancelled: %w", t, err)
		}
		// Snapshot the op-amp Newton-limiting state: a restamp after
		// adaptive pattern growth must replay the identical linearization,
		// and opampLinearize advances lastVc on every call.
		for i, d := range s.ops {
			s.opVc[i], s.opHas[i] = d.lastVc, d.hasLast
		}
		s.clear()
		c.stampInto(s, dst, prev, t, h)
		c.stats.Factorizations++
		err := s.factorSolve(next)
		for err == errPatternGrown {
			// The sparse pattern just absorbed new elimination fill:
			// relayout the plan, restamp and refactor. Growth is
			// monotone, so this settles after the first few solves.
			c.layout(s)
			for i, d := range s.ops {
				d.lastVc, d.hasLast = s.opVc[i], s.opHas[i]
			}
			s.clear()
			c.stampInto(s, dst, prev, t, h)
			c.stats.Factorizations++
			err = s.factorSolve(next)
		}
		if err != nil {
			return nil, err
		}
		c.stats.NewtonIterations++
		worst := 0.0
		for i := 1; i < len(next); i++ {
			if d := math.Abs(next[i] - dst[i]); d > worst {
				worst = d
			}
		}
		alpha := 1.0
		if worst > newtonMaxChange {
			alpha = newtonMaxChange / worst
		}
		for i := 1; i < len(next); i++ {
			dst[i] += alpha * (next[i] - dst[i])
		}
		if worst < newtonTol {
			return dst, nil
		}
	}
	return dst, fmt.Errorf("mna: Newton iteration did not converge at t=%g", t)
}

// DC computes the operating point at t=0.
func (c *Circuit) DC() (Solution, error) {
	return c.DCContext(context.Background())
}

// DCContext computes the operating point at t=0 under a context: the Newton
// iteration polls ctx between iterations and returns the context error on
// cancellation (a half-converged operating point is not useful).
func (c *Circuit) DCContext(ctx context.Context) (Solution, error) {
	if c.Solver == SolverReference {
		nb := c.assignBranches()
		m := newMatrix(c.nodes + nb)
		zero := make(Solution, c.nodes+nb+1)
		return c.newtonRef(ctx, m, zero, zero, 0, -1)
	}
	s, err := c.ensureSolver()
	if err != nil {
		return nil, err
	}
	dst := make(Solution, s.dim+1)
	if c.Solver == SolverFast {
		return c.newtonFastTier(ctx, s, dst, s.zero, s.zero, 0, -1)
	}
	return c.newtonFast(ctx, s, dst, s.zero, s.zero, 0, -1)
}

// maxTranPrealloc caps the per-node transient sample preallocation, well
// above the Figure 8 window (3001 samples).
const maxTranPrealloc = 1 << 14

// Tran holds a transient result.
type Tran struct {
	Time []float64
	// V holds node voltage waveforms indexed by node.
	V map[Node][]float64
	// Truncated marks a run stopped early by cancellation, deadline or
	// Circuit.MaxTranSteps: Time/V hold the samples computed so far.
	Truncated bool
	c         *Circuit
}

// Node returns the waveform of a named node.
func (tr *Tran) Node(name string) []float64 {
	n, ok := tr.c.names[name]
	if !ok {
		return nil
	}
	return tr.V[n]
}

// Transient runs a fixed-step backward-Euler transient analysis.
func (c *Circuit) Transient(tstop, h float64) (*Tran, error) {
	return c.TransientContext(context.Background(), tstop, h)
}

// TransientContext is Transient under a context. The transient is an
// anytime computation: on cancellation or deadline expiry (and when
// Circuit.MaxTranSteps binds) it returns the trace computed so far with
// Tran.Truncated set and a nil error; genuine solve failures still return
// an error.
func (c *Circuit) TransientContext(ctx context.Context, tstop, h float64) (*Tran, error) {
	if tstop <= 0 || h <= 0 {
		return nil, fmt.Errorf("mna: tstop and h must be positive")
	}
	// The step count must be a representable int; the comparison also
	// rejects NaN and +Inf (tstop/h overflowing float64).
	n := math.Ceil(tstop / h)
	if !(n < math.MaxInt) {
		return nil, fmt.Errorf("mna: tstop/h = %g steps is not a representable step count", n)
	}

	// newton dispatches to the selected solver implementation; dst is the
	// reusable iterate buffer of the plan-based path (the reference path
	// allocates per solve, matching the seed behavior).
	var refM *matrix
	var s *solver
	var dim int
	if c.Solver == SolverReference {
		nb := c.assignBranches()
		dim = c.nodes + nb
		refM = newMatrix(dim)
	} else {
		var err error
		s, err = c.ensureSolver()
		if err != nil {
			return nil, err
		}
		dim = s.dim
	}
	newton := func(dst, x0, prev Solution, t float64) (Solution, error) {
		if refM != nil {
			return c.newtonRef(ctx, refM, x0, prev, t, h)
		}
		if c.Solver == SolverFast {
			return c.newtonFastTier(ctx, s, dst, x0, prev, t, h)
		}
		return c.newtonFast(ctx, s, dst, x0, prev, t, h)
	}

	// Initial condition: capacitor ICs enforced via a pseudo-DC with the
	// companion model of a tiny step.
	x := make(Solution, dim+1)
	xNext := make(Solution, dim+1)
	prev := make(Solution, dim+1)
	for _, d := range c.devices {
		if d.kind == dCapacitor && d.ic != 0 {
			prev[d.a] = d.ic
		}
	}
	x0, err := newton(xNext, x, prev, 0)
	if err != nil {
		return nil, err
	}
	x, xNext = x0, x

	steps := int(n)
	tr := &Tran{V: map[Node][]float64{}, c: c}
	if c.MaxTranSteps > 0 && steps > c.MaxTranSteps {
		steps = c.MaxTranSteps
		tr.Truncated = true
	}

	// Sample storage is preallocated per node and published into the map
	// once, so the per-step recording is map-free and, up to
	// maxTranPrealloc samples, append-free. Past the cap the buffers grow
	// with the steps actually taken: a window that a deadline cuts short
	// never reserves memory for samples it does not reach.
	prealloc := min(steps+1, maxTranPrealloc)
	tr.Time = make([]float64, 0, prealloc)
	cols := make([][]float64, c.nodes+1)
	for i := 1; i <= c.nodes; i++ {
		cols[i] = make([]float64, 0, prealloc)
	}
	record := func(t float64, s Solution) {
		tr.Time = append(tr.Time, t)
		for i := 1; i <= c.nodes; i++ {
			cols[i] = append(cols[i], s[i])
		}
		if c.OnSample != nil {
			c.OnSample(t, s)
		}
	}
	finish := func() {
		for i := 1; i <= c.nodes; i++ {
			tr.V[Node(i)] = cols[i]
		}
	}
	record(0, x)
	// Initialize capacitor current memory for the trapezoidal rule.
	for _, d := range c.devices {
		if d.kind == dCapacitor {
			d.prevI = 0
		}
	}
	for step := 1; step <= steps; step++ {
		t := float64(step) * h
		next, err := newton(xNext, x, x, t)
		if err != nil {
			if ctx.Err() != nil {
				// Cancelled mid-solve: the samples up to the previous step
				// stand as the (truncated) result.
				tr.Truncated = true
				finish()
				return tr, nil
			}
			return nil, err
		}
		if c.method == Trapezoidal {
			for _, d := range c.devices {
				if d.kind != dCapacitor {
					continue
				}
				vprev := x.V(d.a) - x.V(d.b)
				vnew := next.V(d.a) - next.V(d.b)
				d.prevI = 2*d.value/h*(vnew-vprev) - d.prevI
			}
		}
		x, xNext = next, x
		record(t, x)
	}
	finish()
	return tr, nil
}

// Max returns the maximum of a node waveform.
func (tr *Tran) Max(name string) float64 {
	m := math.Inf(-1)
	for _, v := range tr.Node(name) {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum of a node waveform.
func (tr *Tran) Min(name string) float64 {
	m := math.Inf(1)
	for _, v := range tr.Node(name) {
		if v < m {
			m = v
		}
	}
	return m
}
