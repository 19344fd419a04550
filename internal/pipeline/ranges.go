package pipeline

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vase/internal/absint"
	"vase/internal/assertlang"
	"vase/internal/interval"
	"vase/internal/vhif"
)

// RangesResult is the memoized output of the ranges stage: the value hull of
// every probe-resolvable signal of one VHIF module, as computed by the
// abstract interpreter (internal/absint). The hull table is the whole
// artifact — verdicts for assert pragmas are derived from it on demand via
// absint.CheckWith, so a disk-cache hit can still decide properties without
// re-running the fixpoint.
//
// The result is shared between callers and must be treated as immutable.
type RangesResult struct {
	// Name is the entity name.
	Name string
	// Signals maps each probe name to its static value hull.
	Signals map[string]interval.Interval
	// Iterations is the number of fixpoint passes the analysis ran (zero on
	// a disk-cache hit from an older artifact; informational only).
	Iterations int
	// Widened reports whether delayed widening fired during the ascent.
	Widened bool
	// Cached reports that this call was served from the cache (memory or
	// disk) rather than by running the analysis.
	Cached bool
}

// Signal returns the hull of one probe name. The signature matches the
// environment parameter of absint.CheckWith.
func (r *RangesResult) Signal(name string) (interval.Interval, bool) {
	v, ok := r.Signals[name]
	return v, ok
}

// Check statically evaluates one assertion against the cached hulls.
func (r *RangesResult) Check(a *assertlang.Assertion) absint.Property {
	return absint.CheckWith(a, r.Signal)
}

// CheckAll statically evaluates a set of assertions against the cached
// hulls.
func (r *RangesResult) CheckAll(as []*assertlang.Assertion) []absint.Property {
	out := make([]absint.Property, len(as))
	for i, a := range as {
		out[i] = r.Check(a)
	}
	return out
}

// Ranges runs the front end and then the value-range analysis for one named
// source text, with both stages memoized.
func (p *Pipeline) Ranges(ctx context.Context, name, text string) (*RangesResult, error) {
	cr, err := p.Compile(ctx, name, text)
	if err != nil {
		return nil, err
	}
	return p.RangesText(ctx, cr.Module, cr.Text)
}

// RangesText runs the ranges stage on a VHIF module whose serialized text
// (the compile stage's artifact) the caller already holds; the text keys
// the cache. text must be the canonical serialization of m.
func (p *Pipeline) RangesText(ctx context.Context, m *vhif.Module, text string) (*RangesResult, error) {
	v, src, err := p.memo(ctx, StageRanges, RangesKey(text), rangesCodec,
		func(ctx context.Context) (any, bool, error) {
			res := absint.Analyze(m)
			rr := &RangesResult{
				Name:       m.Name,
				Signals:    res.SignalHulls(),
				Iterations: res.Iterations,
				Widened:    res.Widened,
			}
			return rr, ctx.Err() == nil, nil
		})
	if err != nil {
		return nil, err
	}
	// Hand each caller its own shallow copy so the Cached flag of one call
	// never leaks into another caller's view of the shared artifact.
	rr := *v.(*RangesResult)
	rr.Cached = src.cached()
	return &rr, nil
}

// rangesHeader identifies (and versions) the on-disk ranges artifact.
const rangesHeader = "vase-ranges v1"

// rangesCodec serializes a RangesResult as a sorted per-signal hull table.
// Bounds use strconv's shortest round-trip float format; ±Inf prints and
// parses natively, so unbounded hulls survive the disk round trip.
var rangesCodec = &codec{
	encode: func(v any) ([]byte, error) {
		rr := v.(*RangesResult)
		names := make([]string, 0, len(rr.Signals))
		for name := range rr.Signals {
			if strings.ContainsAny(name, " \n") {
				return nil, fmt.Errorf("pipeline: signal name %q is not serializable", name)
			}
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		widened := 0
		if rr.Widened {
			widened = 1
		}
		fmt.Fprintf(&b, "%s\nmodule %s\nfixpoint %d %d\n",
			rangesHeader, rr.Name, rr.Iterations, widened)
		for _, name := range names {
			h := rr.Signals[name]
			fmt.Fprintf(&b, "sig %s %s %s\n", name,
				strconv.FormatFloat(h.Lo, 'g', -1, 64),
				strconv.FormatFloat(h.Hi, 'g', -1, 64))
		}
		return []byte(b.String()), nil
	},
	decode: func(data []byte) (any, error) {
		text := string(data)
		var header, module, fixpoint string
		for _, part := range []*string{&header, &module, &fixpoint} {
			line, rest, ok := strings.Cut(text, "\n")
			if !ok {
				return nil, fmt.Errorf("pipeline: truncated ranges artifact")
			}
			*part, text = line, rest
		}
		if header != rangesHeader {
			return nil, fmt.Errorf("pipeline: ranges artifact has header %q, want %q", header, rangesHeader)
		}
		name, ok := strings.CutPrefix(module, "module ")
		if !ok {
			return nil, fmt.Errorf("pipeline: ranges artifact missing module line")
		}
		fields := strings.Fields(fixpoint)
		if len(fields) != 3 || fields[0] != "fixpoint" {
			return nil, fmt.Errorf("pipeline: ranges artifact has malformed fixpoint line %q", fixpoint)
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("pipeline: ranges artifact iteration count %q: %w", fields[1], err)
		}
		rr := &RangesResult{
			Name:       name,
			Signals:    map[string]interval.Interval{},
			Iterations: iters,
			Widened:    fields[2] == "1",
		}
		for _, line := range strings.Split(text, "\n") {
			if line == "" {
				continue
			}
			f := strings.Fields(line)
			if len(f) != 4 || f[0] != "sig" {
				return nil, fmt.Errorf("pipeline: ranges artifact has malformed signal line %q", line)
			}
			lo, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("pipeline: ranges artifact bound %q: %w", f[2], err)
			}
			hi, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return nil, fmt.Errorf("pipeline: ranges artifact bound %q: %w", f[3], err)
			}
			rr.Signals[f[1]] = interval.Interval{Lo: lo, Hi: hi}
		}
		return rr, nil
	},
}
