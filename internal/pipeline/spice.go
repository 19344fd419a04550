package pipeline

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"vase/internal/mna"
	"vase/internal/netlist"
	"vase/internal/wavespec"
)

// spiceData is the memoized output of the spice stage: the raw samples of
// a circuit-level transient analysis, deliberately circuit-independent so
// a disk hit can be rehydrated into any equivalent elaboration via
// mna.(*Circuit).TranFromSamples. Node waveforms are keyed by external
// node number (the map key of mna.Tran.V).
type spiceData struct {
	Time      []float64
	V         map[int][]float64
	Truncated bool
}

// SpiceOptions configures one spice-stage run. Solver and Budget are part
// of the cache key (see SpiceKey).
type SpiceOptions struct {
	Solver mna.SolverMode
	Budget mna.ErrorBudget
}

// SpiceResult is a circuit-level transient of one netlist: a fresh
// elaboration of its op-amp macromodel circuit with the trace bound to it,
// so named-port lookups (Elab.V) work alike on computed and cached runs.
type SpiceResult struct {
	Elab *mna.Elaborated
	Tran *mna.Tran
	// Cached reports that the samples were served from the cache (memory
	// or disk) rather than by running the solver.
	Cached bool
}

// Spice runs (or reuses) a circuit-level transient simulation of a
// netlist. The inputs are textual waveform specs (wavespec grammar) —
// functions are not content-addressable, their specs are. The samples are
// memoized under SpiceKey over the encoded netlist; on a hit the solver
// never runs, and the samples are rehydrated onto a fresh elaboration.
// Truncated results (a cancelled or deadlined context stopped the
// integration early) are returned but never cached: a partial trace
// documents one interrupted run, not the analysis the key names. The exact
// tiers are byte-deterministic and the fast tier is deterministic under
// its keyed budget (the corpus and campaign determinism suites pin this),
// which is what makes the stage cacheable at all. A netlist that cannot be
// encoded cannot be content-addressed either; it is simulated directly,
// uncached, rather than failed.
func (p *Pipeline) Spice(ctx context.Context, nl *netlist.Netlist, inputs map[string]string, tstop, tstep float64, opts SpiceOptions) (*SpiceResult, error) {
	sources, err := wavespec.ParseMap(inputs)
	if err != nil {
		return nil, err
	}
	waves := make(map[string]mna.Waveform, len(sources))
	for name, s := range sources { //vase:unordered (map-to-map copy)
		waves[name] = mna.Waveform(s)
	}
	data, err := nl.Encode()
	if err != nil {
		el, tr, err := Transient(ctx, nl, waves, tstop, tstep, opts)
		if err != nil {
			return nil, err
		}
		return &SpiceResult{Elab: el, Tran: tr}, nil
	}
	key := SpiceKey(data, inputs, tstop, tstep, opts.Solver, opts.Budget)
	v, src, err := p.memo(ctx, StageSpice, key, spiceCodec,
		func(ctx context.Context) (any, bool, error) {
			dnl, err := netlist.Decode(data)
			if err != nil {
				return nil, false, fmt.Errorf("pipeline: spice netlist artifact: %w", err)
			}
			_, tr, err := Transient(ctx, dnl, waves, tstop, tstep, opts)
			if err != nil {
				return nil, false, err
			}
			sd := &spiceData{Time: tr.Time, V: make(map[int][]float64, len(tr.V)), Truncated: tr.Truncated}
			for n, w := range tr.V { //vase:unordered (map-to-map copy)
				sd.V[int(n)] = w
			}
			return sd, ctx.Err() == nil && !tr.Truncated, nil
		})
	if err != nil {
		return nil, err
	}
	sd := v.(*spiceData)
	el, err := mna.Elaborate(nl, waves)
	if err != nil {
		return nil, err
	}
	samples := make(map[mna.Node][]float64, len(sd.V))
	for n, w := range sd.V { //vase:unordered (map-to-map copy)
		samples[mna.Node(n)] = w
	}
	tr := el.Circuit.TranFromSamples(sd.Time, samples, sd.Truncated)
	return &SpiceResult{Elab: el, Tran: tr, Cached: src.cached()}, nil
}

// Transient elaborates the netlist's op-amp macromodel circuit and
// integrates it, uncached, on the solver tier opts selects. A cancelled or
// deadlined context returns the samples computed so far with
// Tran.Truncated set.
func Transient(ctx context.Context, nl *netlist.Netlist, waves map[string]mna.Waveform, tstop, tstep float64, opts SpiceOptions) (*mna.Elaborated, *mna.Tran, error) {
	el, err := mna.Elaborate(nl, waves)
	if err != nil {
		return nil, nil, err
	}
	c := el.Circuit
	c.Solver = opts.Solver
	c.Budget = opts.Budget
	tr, err := c.TransientContext(ctx, tstop, tstep)
	if err != nil {
		return nil, nil, err
	}
	return el, tr, nil
}

// spiceHeader identifies (and versions) the on-disk spice artifact.
const spiceHeader = "vase-spice v1"

// spiceCodec serializes a spiceData with hex-exact floats, so a disk
// round-trip preserves every sample bit for bit — the same determinism
// contract the in-memory cache provides. Truncated traces refuse to
// encode; the stage never marks them cacheable in the first place.
var spiceCodec = &codec{
	encode: func(v any) ([]byte, error) {
		sd := v.(*spiceData)
		if sd.Truncated {
			return nil, fmt.Errorf("pipeline: truncated spice trace is not cacheable")
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s\nshape %d %d\n", spiceHeader, len(sd.V), len(sd.Time))
		writeRow := func(prefix string, w []float64) {
			b.WriteString(prefix)
			for _, f := range w {
				b.WriteByte(' ')
				b.WriteString(strconv.FormatFloat(f, 'x', -1, 64))
			}
			b.WriteByte('\n')
		}
		writeRow("time", sd.Time)
		ids := make([]int, 0, len(sd.V))
		for id := range sd.V {
			ids = append(ids, id)
		}
		for i := 1; i < len(ids); i++ { // insertion sort: tiny, no new import
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		for _, id := range ids {
			writeRow("node "+strconv.Itoa(id), sd.V[id])
		}
		return []byte(b.String()), nil
	},
	decode: func(data []byte) (any, error) {
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) < 3 || lines[0] != spiceHeader {
			return nil, fmt.Errorf("pipeline: spice artifact has header %q, want %q", lines[0], spiceHeader)
		}
		var nodes, samples int
		if _, err := fmt.Sscanf(lines[1], "shape %d %d", &nodes, &samples); err != nil {
			return nil, fmt.Errorf("pipeline: spice artifact shape line %q: %w", lines[1], err)
		}
		if len(lines) != 3+nodes {
			return nil, fmt.Errorf("pipeline: spice artifact has %d rows, want %d", len(lines)-2, nodes+1)
		}
		parseRow := func(fields []string) ([]float64, error) {
			if len(fields) != samples {
				return nil, fmt.Errorf("pipeline: spice artifact row has %d samples, want %d", len(fields), samples)
			}
			w := make([]float64, samples)
			for i, f := range fields {
				x, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("pipeline: spice artifact sample %q: %w", f, err)
				}
				w[i] = x
			}
			return w, nil
		}
		sd := &spiceData{V: make(map[int][]float64, nodes)}
		tf := strings.Fields(lines[2])
		if len(tf) == 0 || tf[0] != "time" {
			return nil, fmt.Errorf("pipeline: spice artifact missing time row")
		}
		var err error
		if sd.Time, err = parseRow(tf[1:]); err != nil {
			return nil, err
		}
		for _, line := range lines[3:] {
			fields := strings.Fields(line)
			if len(fields) < 2 || fields[0] != "node" {
				return nil, fmt.Errorf("pipeline: spice artifact malformed node row %q", line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("pipeline: spice artifact node id %q: %w", fields[1], err)
			}
			if sd.V[id], err = parseRow(fields[2:]); err != nil {
				return nil, err
			}
		}
		return sd, nil
	},
}
