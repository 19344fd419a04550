// Package vhif implements the VASE Hierarchical Intermediate Format, the
// structural representation that VASS specifications are compiled into and
// that the architecture generator maps onto component netlists.
//
// VHIF describes an analog system as two interacting parts:
//
//   - Continuous-time behavior is a set of signal-flow Graphs whose Blocks
//     carry exact knowledge about flows and processing of signals (gains,
//     sums, multipliers, integrators, log/antilog elements, sample-and-hold
//     and switching elements).
//   - Event-driven behavior is a finite state machine (FSM) whose states
//     denote sets of concurrent operations and whose arcs are guarded by
//     events ('above threshold crossings, port events) and conditions.
//
// Control nets connect FSM outputs (VHDL-AMS signals) to switch, mux and
// sample-and-hold blocks in the signal-flow graphs.
package vhif

import (
	"fmt"

	"vase/internal/diag"
)

// BlockKind enumerates the signal-flow block types. Every kind is
// implementable with electronic circuits from the component library.
type BlockKind int

// Signal-flow block kinds.
const (
	// Structure.
	BInput  BlockKind = iota // entity input port
	BOutput                  // entity output port
	BConst                   // constant source
	// Linear processing.
	BGain // multiply by a compile-time constant
	BAdd  // sum of two or more inputs
	BSub  // difference in0 - in1
	BNeg  // inversion (gain -1)
	// Nonlinear processing.
	BMul  // four-quadrant multiplier
	BDiv  // divider in0 / in1
	BLog  // logarithmic amplifier
	BExp  // anti-log (exponential) amplifier
	BSqrt // square-root element
	BSin  // sine shaper
	BCos  // cosine shaper
	BAbs  // precision rectifier
	BMin  // minimum selector
	BMax  // maximum selector
	BSign // signum / hard comparator against zero
	// Dynamic elements.
	BIntegrator     // time integral of the input
	BDifferentiator // time derivative of the input
	BSampleHold     // sample-and-hold, sampled on control
	// Event interface and routing.
	BSwitch     // analog switch: passes input while control is true
	BMux        // two-input analog multiplexer selected by control
	BComparator // threshold comparator producing a control signal
	BSchmitt    // comparator with hysteresis
	BNot        // control inverter
	BADC        // analog-to-digital converter
	BLimiter    // output limiter (clipping stage)
	BBuffer     // follower / output drive stage
	BFilter     // inferred band-limiting filter (low-pass or band-pass)
	numBlockKinds
)

var blockKindNames = [...]string{
	BInput: "input", BOutput: "output", BConst: "const",
	BGain: "gain", BAdd: "add", BSub: "sub", BNeg: "neg",
	BMul: "mul", BDiv: "div", BLog: "log", BExp: "exp",
	BSqrt: "sqrt", BSin: "sin", BCos: "cos", BAbs: "abs",
	BMin: "min", BMax: "max", BSign: "sign",
	BIntegrator: "integ", BDifferentiator: "diff",
	BSampleHold: "sh", BSwitch: "switch", BMux: "mux",
	BComparator: "cmp", BSchmitt: "schmitt", BNot: "not",
	BADC: "adc", BLimiter: "limit", BBuffer: "buffer",
	BFilter: "filter",
}

// String returns the lower-case mnemonic of the kind.
func (k BlockKind) String() string {
	if k >= 0 && int(k) < len(blockKindNames) {
		return blockKindNames[k]
	}
	return fmt.Sprintf("block(%d)", int(k))
}

// arity returns the number of data inputs of each kind; -1 means variadic
// (at least two).
func (k BlockKind) arity() int {
	switch k {
	case BInput, BConst:
		return 0
	case BOutput, BGain, BNeg, BLog, BExp, BSqrt, BSin, BCos, BAbs, BSign,
		BIntegrator, BDifferentiator, BSampleHold, BSwitch, BComparator,
		BSchmitt, BNot, BADC, BLimiter, BBuffer, BFilter:
		return 1
	case BSub, BDiv, BMin, BMax, BMux:
		return 2
	case BAdd, BMul:
		return -1
	}
	return 0
}

// HasControl reports whether the kind takes a control (event) input.
func (k BlockKind) HasControl() bool {
	switch k {
	case BSampleHold, BSwitch, BMux:
		return true
	}
	return false
}

// ProducesControl reports whether the kind's output is a control (event)
// signal rather than an analog one.
func (k BlockKind) ProducesControl() bool {
	switch k {
	case BComparator, BSchmitt, BNot:
		return true
	}
	return false
}

// HasParam reports whether the kind carries a numeric parameter.
func (k BlockKind) HasParam() bool {
	switch k {
	case BConst, BGain, BComparator, BSchmitt, BLimiter, BADC, BFilter:
		return true
	}
	return false
}

// Net is a signal connection between one driver block and any number of
// reader blocks.
type Net struct {
	ID      int
	Name    string
	Driver  *Block
	Readers []*Block
	// Control marks nets that carry event/control values (bit signals)
	// rather than continuous analog values.
	Control bool
}

// Block is one signal-flow operation.
type Block struct {
	ID   int
	Kind BlockKind
	Name string
	// Param is the block constant: gain value for BGain, constant for
	// BConst, threshold for BComparator/BSchmitt, clip level for BLimiter,
	// resolution (bits) for BADC.
	Param float64
	// Hyst is the hysteresis margin of BSchmitt.
	Hyst float64
	// Param2 is the secondary parameter: the lower corner frequency of a
	// band-pass BFilter (0 for a low-pass).
	Param2 float64
	// Inputs are the data inputs in positional order.
	Inputs []*Net
	// Ctrl is the control input of switch/mux/sample-hold blocks.
	Ctrl *Net
	// Out is the single output net (nil only for BOutput).
	Out *Net
	// FromFSM marks blocks materialized from the event-driven part (the
	// analog realizations of FSM datapath elements: comparators, Schmitt
	// triggers). They are the "data-path" elements of the paper's Table 1.
	FromFSM bool
}

// Graph is one signal-flow graph: a connected structure of blocks computing
// a set of outputs from a set of inputs.
type Graph struct {
	Name    string
	Blocks  []*Block
	Nets    []*Net
	nextNet int
	nextBlk int
}

// NewGraph returns an empty named graph.
func NewGraph(name string) *Graph { return &Graph{Name: name} }

// NewNet allocates a net with the given name.
func (g *Graph) NewNet(name string) *Net {
	n := &Net{ID: g.nextNet, Name: name}
	g.nextNet++
	g.Nets = append(g.Nets, n)
	return n
}

// AddBlock appends a block of the given kind reading the inputs and driving
// a fresh output net. The block and net are named automatically when name
// is empty.
func (g *Graph) AddBlock(kind BlockKind, name string, inputs ...*Net) *Block {
	b := &Block{ID: g.nextBlk, Kind: kind, Name: name}
	g.nextBlk++
	if b.Name == "" {
		b.Name = fmt.Sprintf("%s%d", kind, b.ID)
	}
	for _, in := range inputs {
		b.Inputs = append(b.Inputs, in)
		if in != nil {
			in.Readers = append(in.Readers, b)
		}
	}
	if kind != BOutput {
		out := g.NewNet(b.Name + ".out")
		out.Driver = b
		out.Control = kind.ProducesControl()
		b.Out = out
	}
	g.Blocks = append(g.Blocks, b)
	return b
}

// SetCtrl connects a control net to b.
func (b *Block) SetCtrl(g *Graph, ctrl *Net) {
	b.Ctrl = ctrl
	if ctrl != nil {
		ctrl.Readers = append(ctrl.Readers, b)
	}
}

// InputBlocks returns the graph's input blocks in insertion order.
func (g *Graph) InputBlocks() []*Block {
	var out []*Block
	for _, b := range g.Blocks {
		if b.Kind == BInput {
			out = append(out, b)
		}
	}
	return out
}

// BlockByName returns the named block, or nil.
func (g *Graph) BlockByName(name string) *Block {
	for _, b := range g.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// CountKind returns the number of blocks of kind k.
func (g *Graph) CountKind(k BlockKind) int {
	n := 0
	for _, b := range g.Blocks {
		if b.Kind == k {
			n++
		}
	}
	return n
}

// OpBlockCount returns the number of signal-processing operation blocks.
// Structural markers (BInput/BOutput/BConst) are excluded, and so are
// interfacing blocks inferred from port annotations rather than from
// VHDL-AMS code (BBuffer output stages and BLimiter clippers): the paper's
// Figure 7 discussion notes that "block 4 does not process signals, but
// adapts the system output to the loading requirements". Control inverters
// are bookkeeping, not processing. This is the "nr. blocks" metric of the
// paper's Table 1.
func (g *Graph) OpBlockCount() int {
	n := 0
	for _, b := range g.Blocks {
		switch b.Kind {
		case BInput, BOutput, BConst, BBuffer, BLimiter, BNot, BFilter:
		default:
			n++
		}
	}
	return n
}

// Validate checks structural invariants: arities, connected nets, control
// typing, and that every non-input block is reachable from inputs or
// constants.
func (g *Graph) Validate() error {
	for _, b := range g.Blocks {
		want := b.Kind.arity()
		switch {
		case want == -1:
			if len(b.Inputs) < 2 {
				return diag.Errorf(diag.CodeVHIFArity, "vhif: %s block %q requires at least 2 inputs, has %d", b.Kind, b.Name, len(b.Inputs))
			}
		case len(b.Inputs) != want:
			return diag.Errorf(diag.CodeVHIFArity, "vhif: %s block %q requires %d inputs, has %d", b.Kind, b.Name, want, len(b.Inputs))
		}
		if b.Kind.HasControl() && b.Ctrl == nil {
			return diag.Errorf(diag.CodeVHIFControl, "vhif: %s block %q is missing its control input", b.Kind, b.Name)
		}
		if !b.Kind.HasControl() && b.Ctrl != nil {
			return diag.Errorf(diag.CodeVHIFControl, "vhif: %s block %q cannot take a control input", b.Kind, b.Name)
		}
		if b.Ctrl != nil && !b.Ctrl.Control {
			return diag.Errorf(diag.CodeVHIFControl, "vhif: control input of block %q is not a control net", b.Name)
		}
		for i, in := range b.Inputs {
			if in == nil {
				return diag.Errorf(diag.CodeVHIFNet, "vhif: input %d of block %q is unconnected", i, b.Name)
			}
			if in.Driver == nil {
				return diag.Errorf(diag.CodeVHIFNet, "vhif: net %q read by block %q has no driver", in.Name, b.Name)
			}
		}
		if b.Kind != BOutput && b.Out == nil {
			return diag.Errorf(diag.CodeVHIFNet, "vhif: block %q has no output net", b.Name)
		}
	}
	// Each net with readers must have a driver in this graph.
	for _, n := range g.Nets {
		if len(n.Readers) > 0 && n.Driver == nil {
			return diag.Errorf(diag.CodeVHIFNet, "vhif: net %q has readers but no driver", n.Name)
		}
	}
	return g.checkAlgebraicLoops()
}

// checkAlgebraicLoops rejects cycles that do not pass through a state
// element: such cycles have no causal signal-flow implementation.
// Integrators and sample-and-holds hold analog state; comparators and
// Schmitt triggers hold their decision with hysteresis, so feedback through
// them is relaxation dynamics, not an algebraic loop.
func (g *Graph) checkAlgebraicLoops() error {
	cycle := g.FindAlgebraicLoop()
	if cycle == nil {
		return nil
	}
	return diag.Errorf(diag.CodeAlgebraicLoop, "vhif: algebraic loop through block %q: %s",
		cycle[0].Name, DescribeCycle(cycle))
}

// FindAlgebraicLoop returns the blocks of one combinational cycle (a cycle
// not broken by a state element), in signal-flow order starting from the
// first block of the cycle that was declared, or nil when the graph has
// none. Block declaration order makes the result deterministic.
func (g *Graph) FindAlgebraicLoop() []*Block {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[*Block]int, len(g.Blocks))
	var stack []*Block
	var cycle []*Block
	var visit func(b *Block) bool
	visit = func(b *Block) bool {
		color[b] = gray
		stack = append(stack, b)
		if b.Out != nil {
			for _, r := range b.Out.Readers {
				// State elements break combinational cycles.
				if isStateElement(r) {
					continue
				}
				switch color[r] {
				case gray:
					// The cycle is the stack suffix starting at r.
					for i, s := range stack {
						if s == r {
							cycle = append(cycle, stack[i:]...)
							return true
						}
					}
				case white:
					if visit(r) {
						return true
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[b] = black
		return false
	}
	for _, b := range g.Blocks {
		if color[b] == white && visit(b) {
			return cycle
		}
	}
	return nil
}

// DescribeCycle renders a block cycle as "kind "name" --net--> kind "name"
// --net--> ...", naming the nets carrying the feedback.
func DescribeCycle(cycle []*Block) string {
	if len(cycle) == 0 {
		return ""
	}
	var b []byte
	for i, blk := range cycle {
		if i > 0 {
			prev := cycle[i-1]
			net := "?"
			if prev.Out != nil {
				net = prev.Out.Name
			}
			b = append(b, fmt.Sprintf(" --%s--> ", net)...)
		}
		b = append(b, fmt.Sprintf("%s %q", blk.Kind, blk.Name)...)
	}
	last := cycle[len(cycle)-1]
	net := "?"
	if last.Out != nil {
		net = last.Out.Name
	}
	b = append(b, fmt.Sprintf(" --%s--> %s %q", net, cycle[0].Kind, cycle[0].Name)...)
	return string(b)
}

// Topological returns the blocks in a dataflow evaluation order: a block
// appears after all drivers of its inputs, with integrator and sample-hold
// feedback edges broken (their previous-step outputs are available).
func (g *Graph) Topological() []*Block {
	indeg := make(map[*Block]int, len(g.Blocks))
	for _, b := range g.Blocks {
		deps := 0
		ins := b.Inputs
		if b.Ctrl != nil {
			ins = append(append([]*Net{}, b.Inputs...), b.Ctrl)
		}
		for _, in := range ins {
			if in != nil && in.Driver != nil && !isStateElement(b) {
				deps++
			}
		}
		indeg[b] = deps
	}
	var queue, order []*Block
	for _, b := range g.Blocks {
		if indeg[b] == 0 {
			queue = append(queue, b)
		}
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		order = append(order, b)
		if b.Out == nil {
			continue
		}
		for _, r := range b.Out.Readers {
			if isStateElement(r) {
				continue
			}
			indeg[r]--
			if indeg[r] == 0 {
				queue = append(queue, r)
			}
		}
	}
	// State elements and anything left (cycles already rejected by
	// Validate) are appended in declaration order.
	seen := make(map[*Block]bool, len(order))
	for _, b := range order {
		seen[b] = true
	}
	for _, b := range g.Blocks {
		if !seen[b] {
			order = append(order, b)
		}
	}
	return order
}

func isStateElement(b *Block) bool {
	switch b.Kind {
	case BIntegrator, BSampleHold, BComparator, BSchmitt, BFilter:
		return true
	}
	return false
}
