// Package mapper implements the VASE architecture generator: a
// branch-and-bound search that maps the signal-flow graphs of a VHIF module
// onto a minimum-area netlist of library components while satisfying
// performance constraints (the paper's Section 5, Figure 5).
//
// The three problem-specific elements of the algorithm are implemented
// exactly as described:
//
//   - Branching rule: for the current block, all library patterns whose
//     covered sub-graph ends at that block (including functional and
//     interfacing transformations) generate alternatives; for each, the
//     block structure may share an existing identical component
//     (cross-path sharing) or allocate a dedicated one.
//   - Bounding rule: a partial solution dies when even at minimum op amp
//     area ((opamps so far + opamps of the candidate) * MinArea) it cannot
//     beat the best complete mapping found so far.
//   - Sequencing rule: alternatives covering more blocks with fewer op amps
//     are tried first, and sharing before dedicated allocation, so a good
//     solution is found early and the bound becomes effective.
//
// Complete mappings are ranked by the analog performance estimator.
//
// Blocks interact only through a pattern that covers several of them, or
// through sharing, which needs equal sharing signatures. Blocks linked by
// neither are independent, so the search splits the design into independent
// parts, runs the branch-and-bound on each part in turn, and stitches the
// parts' mappings back together in block order (see parts).
package mapper

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"vase/internal/estimate"
	"vase/internal/library"
	"vase/internal/netlist"
	"vase/internal/patterns"
	"vase/internal/vhif"
)

// Objective selects the quantity the branch-and-bound minimizes.
type Objective int

// Objectives. The paper minimizes ASIC area; power is the other global
// attribute its estimation tools report.
const (
	MinimizeArea Objective = iota
	MinimizePower
)

// Options configures a synthesis run.
type Options struct {
	// Process and System size the op amps during estimation.
	Process estimate.Process
	System  estimate.SystemSpec
	// Objective is the minimized quantity (area by default).
	Objective Objective
	// Patterns controls the pattern generator.
	Patterns patterns.Options
	// NoSequencing disables the sequencing rule (candidates tried in
	// reverse preference order) — ablation.
	NoSequencing bool
	// NoBounding disables the bounding rule — ablation.
	NoBounding bool
	// NoSharing disables cross-path component sharing — ablation.
	NoSharing bool
	// FirstFit stops at the first complete mapping (the time-effective
	// exploration heuristic the paper's future work calls for): with the
	// sequencing rule ordering candidates, the first completion is usually
	// at or near the optimum and the search cost collapses.
	FirstFit bool
	// StrongBound adds a per-uncovered-block op amp lower bound to the
	// bounding rule ("more effective bounding rules", paper Section 7).
	// Admissible when sharing is disabled; with sharing it may prune
	// mappings that would have shared components for free, so it is a
	// heuristic there. The bound sums over every uncovered block, so it
	// searches the design as one part.
	StrongBound bool
	// Trace records the decision tree (Figure 6). Tracing is strictly
	// opt-in: with Trace false the search allocates no tree nodes. Figure
	// 6's tree is one tree over the design, so a traced run searches the
	// design as one part; it returns the same mapping as an untraced run.
	Trace bool
	// MaxNodes caps the search (0 = 1<<22 nodes), summed over the parts. A
	// binding cap truncates the search: the best incumbent found so far is
	// returned with Result.Nonoptimal set.
	MaxNodes int
	// Deprecated: ignored; the search is sequential.
	Workers int
	// Performance constraints: complete mappings violating them are
	// discarded ("so that all performance constraints are satisfied, and
	// the total ASIC area is minimized"). Zero means unconstrained. A
	// constraint couples every block, so it searches the design as one
	// part.
	MaxAreaUm2 float64
	MaxPowerMW float64
	MaxOpAmps  int
}

// DefaultOptions returns the standard synthesis configuration: the SCN
// 2.0 µm process with the system specification derived from the design's
// port annotations (audio-range defaults when unannotated).
func DefaultOptions() Options {
	return Options{Process: estimate.SCN20}
}

// Stats reports search effort and outcome. The counters sum over the parts
// and any first-fit fallback.
type Stats struct {
	NodesVisited     int
	CompleteMappings int
	Pruned           int
	// Infeasible counts complete mappings discarded for violating the
	// performance constraints.
	Infeasible  int
	BestOpAmps  int
	BestAreaUm2 float64
	// Elapsed is the wall-clock time of the whole synthesis call, so
	// callers of a deadlined run can reason about how much search the
	// incumbent received.
	Elapsed time.Duration
}

// TreeNode is one node of the traced decision tree.
type TreeNode struct {
	// Block is the current block the node branched on ("" at the root).
	Block string
	// Decision describes the branch taken to reach this node.
	Decision string
	// OpAmps is the op amp count of the partial mapping at this node.
	OpAmps int
	// Complete marks leaves that are full mappings; AreaUm2 their area.
	Complete bool
	AreaUm2  float64
	Pruned   bool
	Children []*TreeNode
}

// Result is a completed synthesis.
type Result struct {
	Netlist *netlist.Netlist
	Report  *netlist.Report
	Stats   Stats
	Tree    *TreeNode
	// Nonoptimal marks a truncated search: the node budget or the
	// deadline/cancellation stopped exploration before the whole decision
	// tree was covered, so Netlist is the best incumbent found rather than
	// the proven optimum.
	Nonoptimal bool
}

// Synthesize maps the module onto a minimum-area component netlist.
func Synthesize(m *vhif.Module, opts Options) (*Result, error) {
	return SynthesizeContext(context.Background(), m, opts)
}

// SynthesizeContext is Synthesize under a context: branch-and-bound is a
// natural anytime algorithm, so on cancellation or deadline expiry the
// search stops and returns the best incumbent found so far tagged
// Result.Nonoptimal — never a hang, and an error only when not even a
// greedy first-fit completion exists. A context that can never be
// cancelled leaves the search byte-identical to Synthesize.
func SynthesizeContext(ctx context.Context, m *vhif.Module, opts Options) (*Result, error) {
	start := time.Now() //vase:walltime (stats telemetry)
	if opts.Process.Name == "" {
		opts.Process = estimate.SCN20
	}
	if opts.System.Bandwidth == 0 {
		opts.System = SystemSpecFor(m)
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 1 << 22
	}
	s := newSearch(m, opts)
	if ctx.Done() != nil {
		// The search polls an atomic flag instead of the context channel:
		// one flag load per node is cheap, and a context that can never
		// fire (Background) costs nothing at all.
		var flag atomic.Bool
		stop := context.AfterFunc(ctx, func() { flag.Store(true) })
		defer stop()
		if ctx.Err() != nil {
			// AfterFunc fires asynchronously; an already-expired context
			// must truncate the search deterministically, not race it.
			flag.Store(true)
		}
		s.cancel = &flag
	}
	if opts.Trace {
		s.root = &TreeNode{Decision: "root"}
		s.cursor = s.root
	}
	var best []*alloc
	for _, part := range s.parts() {
		// A fresh incumbent per part. A cut search stays cut: once the node
		// budget or the cancel flag stopped one part, the later parts go
		// straight to the fallback.
		s.part, s.best, s.bestArea, s.done = part, nil, inf, s.truncated
		s.run()
		if s.truncated && s.best == nil {
			s.firstFit()
		}
		if s.best == nil {
			if s.err != nil {
				return nil, s.err
			}
			if s.truncated && ctx.Err() != nil {
				return nil, fmt.Errorf("mapper: search for module %q cancelled before any feasible mapping: %w", m.Name, ctx.Err())
			}
			return nil, fmt.Errorf("mapper: no feasible mapping for module %q", m.Name)
		}
		best = append(best, s.best...)
	}
	// Stitch: the one-part search allocates in the block order of each
	// allocation's defining root, so the same order emits the same netlist.
	pos := make(map[*vhif.Block]int, len(s.order))
	for i, b := range s.order {
		pos[b] = i
	}
	sort.Slice(best, func(i, j int) bool { return pos[best[i].match.Root] < pos[best[j].match.Root] })
	nl, err := s.buildNetlist(best)
	if err != nil {
		return nil, err
	}
	rep, err := nl.Estimate(opts.Process, opts.System)
	if err != nil {
		return nil, err
	}
	s.stats.BestOpAmps = nl.OpAmpCount()
	s.stats.BestAreaUm2 = rep.AreaUm2
	s.stats.Elapsed = time.Since(start) //vase:walltime (stats telemetry)
	return &Result{Netlist: nl, Report: rep, Stats: s.stats, Tree: s.root, Nonoptimal: s.truncated}, nil
}

// firstFit is the anytime fallback for a part cut off before its first
// complete mapping: a greedy first-fit descent over the part (the
// sequencing rule makes its first completion a good one). It runs outside
// the cancel flag and the decision tree, with its own node headroom (it
// stops at the first complete mapping, so it stays cheap).
func (s *search) firstFit() {
	g := *s
	g.opts.FirstFit, g.opts.MaxNodes = true, 1<<22
	g.stats, g.cancel, g.cursor, g.done = Stats{}, nil, nil, false
	g.run()
	s.best, s.err = g.best, g.err
	s.stats.NodesVisited += g.stats.NodesVisited
	s.stats.CompleteMappings += g.stats.CompleteMappings
	s.stats.Infeasible += g.stats.Infeasible
}

// newSearch builds a search over the module: the block visitation order,
// the memoized per-block candidates (the candidate lists depend only on
// the block, never on the covering state, so they and their sharing
// signatures are computed once), and the bounding floors.
func newSearch(m *vhif.Module, opts Options) *search {
	s := &search{
		m:             m,
		opts:          opts,
		floorGeneral:  estimate.MinArea(opts.Process),
		floorDecision: estimate.MinOTAArea(opts.Process),
		bestArea:      inf,
		covered:       map[*vhif.Block]*alloc{},
	}
	if opts.Objective == MinimizePower {
		// Class floors in watts: the minimum-bias designs of each topology.
		s.floorGeneral = estimate.MinOpAmp(opts.Process).Power
		s.floorDecision = 2e-6 * opts.Process.Vdd // one minimum tail current
	}
	s.order = blockOrder(m)
	s.cands = make(map[*vhif.Block][]candidate, len(s.order))
	sigs := map[string]int{}
	for _, b := range s.order {
		g := graphOf(m, b)
		ms := patterns.MatchesFor(g, b, opts.Patterns)
		if opts.NoSequencing {
			// Ablation: reverse the preference order.
			for i, j := 0, len(ms)-1; i < j; i, j = i+1, j-1 {
				ms[i], ms[j] = ms[j], ms[i]
			}
		}
		cs := make([]candidate, len(ms))
		for i, match := range ms {
			key := sigOf(match)
			id, ok := sigs[key]
			if !ok {
				id = len(sigs)
				sigs[key] = id
			}
			cs[i] = candidate{match: match, sig: id}
		}
		s.cands[b] = cs
	}
	s.costs = make([]cellCost, len(sigs))
	if opts.StrongBound {
		s.computeBlockBounds()
	}
	return s
}

// parts splits the block order into the design's independent parts. Two
// blocks join when one candidate match covers both, or when candidates
// rooted at them have equal sharing signatures: these are the only ways
// the branching rule couples blocks. Each part keeps the block order. The
// options that couple every block keep the whole order as one part: a
// global constraint, the strong bound (it sums over every uncovered block)
// and Trace (Figure 6's decision tree is one tree over the design).
func (s *search) parts() [][]*vhif.Block {
	o := s.opts
	if o.MaxAreaUm2 > 0 || o.MaxPowerMW > 0 || o.MaxOpAmps > 0 || o.StrongBound || o.Trace {
		return [][]*vhif.Block{s.order}
	}
	parent := map[*vhif.Block]*vhif.Block{}
	var find func(b *vhif.Block) *vhif.Block
	find = func(b *vhif.Block) *vhif.Block {
		p, ok := parent[b]
		if !ok || p == b {
			return b
		}
		r := find(p)
		parent[b] = r
		return r
	}
	union := func(a, b *vhif.Block) {
		if ra, rb := find(a), find(b); ra != rb {
			parent[rb] = ra
		}
	}
	rootOfSig := make([]*vhif.Block, len(s.costs)) // costs has one slot per signature
	for _, b := range s.order {
		for _, c := range s.cands[b] {
			for _, cov := range c.match.Blocks {
				union(b, cov)
			}
			if r := rootOfSig[c.sig]; r != nil {
				union(r, b)
			} else {
				rootOfSig[c.sig] = b
			}
		}
	}
	index := map[*vhif.Block]int{}
	var out [][]*vhif.Block
	for _, b := range s.order {
		r := find(b)
		i, ok := index[r]
		if !ok {
			i = len(out)
			index[r] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], b)
	}
	return out
}

func graphOf(m *vhif.Module, b *vhif.Block) *vhif.Graph {
	for _, g := range m.Graphs {
		for _, gb := range g.Blocks {
			if gb == b {
				return g
			}
		}
	}
	return nil
}

const inf = 1e300

// SystemSpecFor derives the design-wide signal specification from the
// module's port annotations: the highest annotated frequency bound sets the
// bandwidth, the widest annotated range or peak drive the signal swing.
// Unannotated designs fall back to the audio-range default. It is exported
// so the pipeline's estimate stage applies the identical defaulting when it
// re-estimates a netlist materialized from a cached artifact.
func SystemSpecFor(m *vhif.Module) estimate.SystemSpec {
	sys := estimate.DefaultSystemSpec()
	for _, p := range m.Ports {
		if p.FreqHi > sys.Bandwidth {
			sys.Bandwidth = p.FreqHi
		}
		for _, v := range []float64{p.PeakDrive, p.RangeHi, -p.RangeLo, p.LimitAt} {
			if v > sys.PeakV {
				sys.PeakV = v
			}
		}
	}
	return sys
}

// cellCost is the cached estimate of a dedicated component: layout area
// and static power. ok is false for infeasible specifications; known is
// false until the estimate has run.
type cellCost struct {
	area, power float64
	ok, known   bool
}

// candidate is one memoized match of a block with its sharing signature,
// formatted once and interned to an index into search.costs.
type candidate struct {
	match *patterns.Match
	sig   int
}

// alloc is one allocated component shared by one or more placements.
type alloc struct {
	match *patterns.Match
	sig   int
	area  float64
	power float64
	uses  int
	// cost is the objective value of the component (area or power).
	cost float64
	// placements records every match realized by this component; the first
	// is the defining one, later ones alias their outputs onto it.
	placements []*patterns.Match
}

// search carries the branch-and-bound state: the tables newSearch builds
// once, and the exploration state of the part being searched.
type search struct {
	m             uModule
	opts          Options
	order         []*vhif.Block // the design's block visitation order
	floorGeneral  float64
	floorDecision float64
	// cands memoizes the candidate matches of each block in sequencing
	// order. Read-only after newSearch.
	cands map[*vhif.Block][]candidate

	// part is the blocks of the part being searched, in block order.
	part    []*vhif.Block
	covered map[*vhif.Block]*alloc
	allocs  []*alloc
	opamps  int
	// floorGeneral/floorDecision are the per-op-amp objective floors (area
	// in µm² or power in W) for general-purpose and decision-class cells;
	// the bounding rule multiplies op amp counts by them.
	// lbArea is the class-aware minimum area of the op amps allocated so
	// far: decision cells (comparators/Schmitt triggers) may be realized
	// as minimum OTAs, everything else needs at least a minimum two-stage
	// amplifier. The paper's bounding rule is the single-topology special
	// case of this bound.
	lbArea float64

	bestArea float64
	best     []*alloc
	stats    Stats
	err      error
	done     bool // FirstFit: stop after the first complete mapping
	// cancel is the cooperative stop flag armed by SynthesizeContext (nil
	// when the context can never fire); every node visit polls it.
	cancel *atomic.Bool
	// truncated records that the search stopped early — node budget
	// exhausted or cancel observed — so the returned mapping is the best
	// incumbent, not the proven optimum.
	truncated bool

	// costs caches the estimated cost per sharing signature.
	costs []cellCost
	// blockLB is the per-block fractional op amp lower bound used by the
	// strong bounding rule; remainingLB its sum over uncovered blocks.
	blockLB     map[*vhif.Block]float64
	remainingLB float64

	root   *TreeNode
	cursor *TreeNode
}

// uModule is the minimal module view the search needs.
type uModule = *vhif.Module

// blockOrder computes the current-block visitation order: outputs first,
// then depth-first through input and control nets, matching the paper's
// output-to-input traversal of the signal-flow graph.
func blockOrder(m *vhif.Module) []*vhif.Block {
	var order []*vhif.Block
	seen := map[*vhif.Block]bool{}
	var visit func(b *vhif.Block)
	visit = func(b *vhif.Block) {
		if b == nil || seen[b] {
			return
		}
		seen[b] = true
		if isMappable(b) {
			order = append(order, b)
		}
		for _, in := range b.Inputs {
			if in != nil {
				visit(in.Driver)
			}
		}
		if b.Ctrl != nil {
			visit(b.Ctrl.Driver)
		}
	}
	for _, g := range m.Graphs {
		for _, b := range g.Blocks {
			if b.Kind == vhif.BOutput {
				visit(b)
			}
		}
	}
	// Control links and any remaining blocks (e.g. detectors driving only
	// exported signals).
	for _, c := range m.Controls {
		if c.Net != nil {
			visit(c.Net.Driver)
		}
	}
	for _, g := range m.Graphs {
		for _, b := range g.Blocks {
			visit(b)
		}
	}
	return order
}

func isMappable(b *vhif.Block) bool {
	switch b.Kind {
	case vhif.BInput, vhif.BOutput, vhif.BConst:
		return false
	}
	return true
}

// nextUncovered returns the first block of the part not yet covered.
func (s *search) nextUncovered() *vhif.Block {
	for _, b := range s.part {
		if s.covered[b] == nil {
			return b
		}
	}
	return nil
}

// minCostOf returns the class-aware per-op-amp objective floor for a cell.
func (s *search) minCostOf(cell *library.Cell) float64 {
	if estimate.IsDecisionCell(cell.Kind) {
		return s.floorDecision
	}
	return s.floorGeneral
}

// matchLB is the minimum-area contribution of allocating a dedicated
// component for the match.
func (s *search) matchLB(m *patterns.Match) float64 {
	return float64(m.OpAmps) * s.minCostOf(m.Cell)
}

// computeBlockBounds fills blockLB: for each block, the cheapest fractional
// minimum area over all matches covering it. The sum over any block set is
// a valid lower bound on the area of any covering (ignoring sharing).
func (s *search) computeBlockBounds() {
	s.blockLB = map[*vhif.Block]float64{}
	for _, g := range s.m.Graphs {
		for _, b := range g.Blocks {
			if !isMappable(b) {
				continue
			}
			s.blockLB[b] = inf
		}
	}
	for _, g := range s.m.Graphs {
		for _, b := range g.Blocks {
			if !isMappable(b) {
				continue
			}
			for _, m := range patterns.MatchesFor(g, b, s.opts.Patterns) {
				frac := s.matchLB(m) / float64(len(m.Blocks))
				for _, cov := range m.Blocks {
					if frac < s.blockLB[cov] {
						s.blockLB[cov] = frac
					}
				}
			}
		}
	}
	// Sum in graph order, not map order: float addition rounds, so a
	// map-ordered sum would make the bound (and with it a borderline
	// prune) vary run to run.
	s.remainingLB = 0
	for _, g := range s.m.Graphs {
		for _, b := range g.Blocks {
			if lb, ok := s.blockLB[b]; ok && lb < inf {
				s.remainingLB += lb
			}
		}
	}
}

// bound returns the minimum-area lower bound of completing the current
// partial mapping after placing match: the class-aware minimum areas of the
// op amps allocated so far, the candidate's, and (under the strong rule)
// the fractional minimum of the still-uncovered blocks.
func (s *search) bound(match *patterns.Match) float64 {
	lb := s.lbArea + s.matchLB(match)
	if s.opts.StrongBound && s.blockLB != nil {
		rest := s.remainingLB
		for _, b := range match.Blocks {
			if v := s.blockLB[b]; v < inf && s.covered[b] == nil {
				rest -= v
			}
		}
		if rest > 0 {
			lb += rest
		}
	}
	return lb
}

// visit accounts one node visit and reports whether the search may proceed:
// it enforces cancellation and the node budget.
func (s *search) visit() bool {
	if s.cancel != nil && s.cancel.Load() {
		// Deadline expired or the caller cancelled: stop the whole search
		// and let the incumbent stand (anytime contract).
		s.done = true
		s.truncated = true
		return false
	}
	s.stats.NodesVisited++
	if s.stats.NodesVisited >= s.opts.MaxNodes {
		// Stop the whole search, not just this branch.
		s.done = true
		s.truncated = true
		return false
	}
	return true
}

func (s *search) run() {
	if s.done {
		return
	}
	if !s.visit() {
		return
	}
	cur := s.nextUncovered()
	if cur == nil {
		s.complete()
		return
	}
	for _, c := range s.cands[cur] {
		match := c.match
		if s.conflicts(match) {
			continue
		}
		cost, ok := s.matchCost(c)
		if !ok {
			continue
		}
		// Sharing branch: reuse an identical component in the netlist.
		if !s.opts.NoSharing {
			if existing := s.findShared(c.sig); existing != nil {
				s.place(match, existing, 0)
				s.descend("share ", match)
				s.unplace(match, existing, 0)
			}
		}
		// Dedicated allocation with the bounding rule.
		if !s.opts.NoBounding && s.bound(match) >= s.bestArea {
			s.stats.Pruned++
			if s.cursor != nil {
				s.cursor.Children = append(s.cursor.Children, &TreeNode{
					Block:    cur.Name,
					Decision: "alloc " + match.Name,
					OpAmps:   s.opamps + match.OpAmps,
					Pruned:   true,
				})
			}
			continue
		}
		a := &alloc{match: match, sig: c.sig, area: cost.area, power: cost.power, cost: cost.area}
		if s.opts.Objective == MinimizePower {
			a.cost = cost.power
		}
		s.allocs = append(s.allocs, a)
		s.place(match, a, match.OpAmps)
		s.descend("alloc ", match)
		s.unplace(match, a, match.OpAmps)
		s.allocs = s.allocs[:len(s.allocs)-1]
	}
}

// descend recurses into the branch that placed match. Under tracing it
// records the decision (verb and pattern) as a child of the cursor; the
// string is built only then.
func (s *search) descend(verb string, match *patterns.Match) {
	if s.cursor == nil {
		s.run()
		return
	}
	node := &TreeNode{Block: match.Root.Name, Decision: verb + match.Name, OpAmps: s.opamps}
	s.cursor.Children = append(s.cursor.Children, node)
	saved := s.cursor
	s.cursor = node
	s.run()
	s.cursor = saved
}

func (s *search) conflicts(match *patterns.Match) bool {
	for _, b := range match.Blocks {
		if s.covered[b] != nil {
			return true
		}
	}
	return false
}

func (s *search) place(match *patterns.Match, a *alloc, opamps int) {
	for _, b := range match.Blocks {
		s.covered[b] = a
		if s.blockLB != nil {
			if v := s.blockLB[b]; v < inf {
				s.remainingLB -= v
			}
		}
	}
	a.uses++
	a.placements = append(a.placements, match)
	s.opamps += opamps
	if opamps > 0 {
		s.lbArea += s.matchLB(match)
	}
}

func (s *search) unplace(match *patterns.Match, a *alloc, opamps int) {
	for _, b := range match.Blocks {
		delete(s.covered, b)
		if s.blockLB != nil {
			if v := s.blockLB[b]; v < inf {
				s.remainingLB += v
			}
		}
	}
	a.uses--
	a.placements = a.placements[:len(a.placements)-1]
	s.opamps -= opamps
	if opamps > 0 {
		s.lbArea -= s.matchLB(match)
	}
}

// findShared locates an existing allocation with the same pattern,
// parameters and input nets ("blocks in distinct signal paths can share the
// same component, if they have identical inputs, and perform similar
// operations"): the same sharing signature.
func (s *search) findShared(sig int) *alloc {
	for _, a := range s.allocs {
		if a.uses > 0 && a.sig == sig {
			return a
		}
	}
	return nil
}

// sigOf builds the sharing signature: pattern, parameters, inputs, control.
func sigOf(m *patterns.Match) string {
	var b strings.Builder
	b.WriteString(m.Name)
	b.WriteByte('|')
	b.WriteString(m.Cell.Kind.String())
	keys := make([]string, 0, len(m.Params))
	for k := range m.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%g", k, m.Params[k])
	}
	for _, in := range m.Inputs {
		fmt.Fprintf(&b, "|i%d", in.ID)
	}
	if m.Ctrl != nil {
		fmt.Fprintf(&b, "|c%d", m.Ctrl.ID)
	}
	return b.String()
}

// matchCost estimates (and caches per signature) the area and power of a
// dedicated component for the candidate; infeasible specs reject it.
func (s *search) matchCost(c candidate) (cellCost, bool) {
	if cost := s.costs[c.sig]; cost.known {
		return cost, cost.ok
	}
	match := c.match
	inst := estimate.CellInstance{
		Cell:    match.Cell,
		Gain:    maxGain(match),
		Inputs:  len(match.Inputs),
		LoadRes: match.Params["load"],
		PeakOut: match.Params["peak"],
	}
	est, err := estimate.EstimateCell(s.opts.Process, s.opts.System, inst)
	if err != nil {
		s.costs[c.sig] = cellCost{known: true}
		if s.err == nil {
			s.err = err
		}
		return cellCost{}, false
	}
	cost := cellCost{area: est.AreaUm2, power: est.Power, ok: true, known: true}
	if n := match.Params["stages"]; n > 1 {
		cost.area *= n
		cost.power *= n
	}
	s.costs[c.sig] = cost
	return cost, true
}

func maxGain(m *patterns.Match) float64 {
	g := 1.0
	for k, v := range m.Params { //vase:unordered (exact max fold, commutative)
		if strings.HasPrefix(k, "gain") {
			if v < 0 {
				v = -v
			}
			if v > g {
				g = v
			}
		}
	}
	return g
}

// complete records a full mapping, keeping it when it beats the best.
func (s *search) complete() {
	s.stats.CompleteMappings++
	area, power, cost := 0.0, 0.0, 0.0
	for _, a := range s.allocs {
		area += a.area
		power += a.power
		cost += a.cost
	}
	// Performance constraints: a violating mapping is not a solution.
	if (s.opts.MaxAreaUm2 > 0 && area > s.opts.MaxAreaUm2) ||
		(s.opts.MaxPowerMW > 0 && power*1e3 > s.opts.MaxPowerMW) ||
		(s.opts.MaxOpAmps > 0 && s.opamps > s.opts.MaxOpAmps) {
		s.stats.Infeasible++
		if s.cursor != nil {
			s.cursor.Children = append(s.cursor.Children, &TreeNode{
				Decision: "complete (violates constraints)",
				OpAmps:   s.opamps,
				Complete: true,
				AreaUm2:  area,
			})
		}
		return
	}
	if s.opts.FirstFit {
		s.done = true
	}
	if s.cursor != nil {
		s.cursor.Children = append(s.cursor.Children, &TreeNode{
			Decision: "complete",
			OpAmps:   s.opamps,
			Complete: true,
			AreaUm2:  area,
		})
	}
	if cost < s.bestArea {
		s.bestArea = cost
		s.best = make([]*alloc, len(s.allocs))
		for i, a := range s.allocs {
			// Snapshot: allocations are mutated on backtrack.
			cp := *a
			cp.placements = append([]*patterns.Match{}, a.placements...)
			s.best[i] = &cp
		}
	}
}

// buildNetlist materializes a completed allocation list as a component
// netlist.
func (s *search) buildNetlist(allocs []*alloc) (*netlist.Netlist, error) {
	nl := netlist.New(s.m.Name)

	// Shared placements beyond the first compute the same value as the
	// defining placement: canonicalize their output nets onto it.
	canon := map[*vhif.Net]*vhif.Net{}
	for _, a := range allocs {
		for _, m := range a.placements[1:] {
			canon[m.Root.Out] = a.placements[0].Root.Out
		}
	}
	resolve := func(v *vhif.Net) *vhif.Net {
		for {
			c, ok := canon[v]
			if !ok {
				return v
			}
			v = c
		}
	}

	nets := map[*vhif.Net]*netlist.Net{}
	netFor := func(v *vhif.Net) *netlist.Net {
		if v == nil {
			return nil
		}
		v = resolve(v)
		if n, ok := nets[v]; ok {
			return n
		}
		n := nl.NewNet(v.Name)
		// Constant blocks are not mapped to components; their nets become
		// reference-source nodes.
		if v.Driver != nil && v.Driver.Kind == vhif.BConst {
			value := v.Driver.Param
			n.Const = &value
		}
		nets[v] = n
		return n
	}

	// Input ports.
	for _, g := range s.m.Graphs {
		for _, b := range g.Blocks {
			if b.Kind == vhif.BInput {
				nl.AddPort(b.Name, netlist.In, netFor(b.Out))
			}
		}
	}

	for _, a := range allocs {
		m := a.placements[0]
		var ins []*netlist.Net
		for _, in := range m.Inputs {
			ins = append(ins, netFor(in))
		}
		comp := nl.AddComponent(m.Cell, m.Root.Name, ins, netFor(m.Root.Out))
		comp.Params = map[string]float64{}
		for k, v := range m.Params { //vase:unordered (map-to-map copy)
			comp.Params[k] = v
		}
		if m.Ctrl != nil {
			comp.Ctrl = netFor(m.Ctrl)
		}
		if len(a.placements) > 1 {
			comp.Shared = true
		}
	}

	// Output ports.
	for _, g := range s.m.Graphs {
		for _, b := range g.Blocks {
			if b.Kind == vhif.BOutput {
				nl.AddPort(b.Name, netlist.Out, netFor(b.Inputs[0]))
			}
		}
	}
	for _, c := range s.m.Controls {
		if c.Net != nil {
			nl.AddPort(c.Signal, netlist.Out, netFor(c.Net))
		}
	}
	return nl, nil
}

// FormatTree renders a traced decision tree (Figure 6 style).
func FormatTree(n *TreeNode) string {
	var b strings.Builder
	var rec func(n *TreeNode, depth int)
	rec = func(n *TreeNode, depth int) {
		indent := strings.Repeat("  ", depth)
		switch {
		case n.Complete:
			fmt.Fprintf(&b, "%s* complete mapping: %d op amps (area %.0f um^2)\n", indent, n.OpAmps, n.AreaUm2)
		case n.Pruned:
			fmt.Fprintf(&b, "%s- %s @ %s: pruned by bound (%d op amps)\n", indent, n.Decision, n.Block, n.OpAmps)
		default:
			fmt.Fprintf(&b, "%s+ %s @ %s (%d op amps so far)\n", indent, n.Decision, n.Block, n.OpAmps)
		}
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	if n != nil {
		rec(n, 0)
	}
	return b.String()
}
