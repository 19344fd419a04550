package pipeline

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"vase/internal/ast"
	"vase/internal/compile"
	"vase/internal/diag"
	"vase/internal/estimate"
	"vase/internal/lint"
	"vase/internal/mapper"
	"vase/internal/netlist"
	"vase/internal/parser"
	"vase/internal/sema"
	"vase/internal/vhif"
)

// FrontStats is the specification-metrics column of Table 1, carried on the
// compile artifact so a disk-cache hit (which skips parsing and analysis)
// still reports them.
type FrontStats struct {
	ContinuousLines int `json:"continuous_lines"`
	Quantities      int `json:"quantities"`
	EventLines      int `json:"event_lines"`
	Signals         int `json:"signals"`
}

// CompileResult is the output of the front-end stages: the VHIF module, its
// canonical text form (the input artifact of the map stage), and the
// Table 1 front-end metrics.
//
// The result is shared between callers and must be treated as immutable.
// AST and Sema are nil when the result was materialized from the on-disk
// store — only the VHIF module and the metrics are serialized; callers
// needing the syntax tree or symbol tables must compile without a disk
// cache (or accept a recompute).
type CompileResult struct {
	// Name is the entity name.
	Name string
	// AST is the parsed design file (nil on a disk-cache hit).
	AST *ast.DesignFile
	// Sema is the analyzed design (nil on a disk-cache hit).
	Sema *sema.Design
	// Module is the VHIF intermediate representation.
	Module *vhif.Module
	// Text is Module's canonical serialized form.
	Text string
	// Stats are the front-end Table 1 metrics.
	Stats FrontStats
	// Cached reports that this call was served from the cache (memory or
	// disk) rather than by running the front end.
	Cached bool
}

// ParseResult is the output of the error-recovering parse stage: a
// structurally complete design file (every input token is covered by some
// top-level unit, with ERROR nodes standing in for skipped regions) plus the
// full syntax diagnostics, sorted. Unlike Parse, diagnostics do not fail the
// stage — a broken source still has a canonical tree, and the pair is
// memoized like any other artifact. The AST is shared across callers and
// must be treated as immutable.
type ParseResult struct {
	// AST is the recovered design file; never nil.
	AST *ast.DesignFile
	// Diags are the syntax (and lex) diagnostics, sorted. Each caller gets
	// its own slice header.
	Diags diag.List
	// Partial reports that recovery fired: the AST contains ERROR nodes, or
	// the parse produced error diagnostics (resynchronization can repair the
	// token stream into well-formed nodes without leaving a hole behind).
	Partial bool
	// Cached reports that this call was served from the cache.
	Cached bool
}

// ParseRecover runs (or reuses) the error-recovering parse stage for one
// named source text. It never fails on syntax errors; the only error is a
// cancelled context.
func (p *Pipeline) ParseRecover(ctx context.Context, name, text string) (*ParseResult, error) {
	v, src, err := p.memo(ctx, StageParse, ParseRecoverKey(name, text), nil,
		func(ctx context.Context) (any, bool, error) {
			df, errs := parser.ParseCollect(name, text)
			errs.Sort()
			pr := &ParseResult{AST: df, Diags: *errs, Partial: ast.HasErrors(df) || errs.HasErrors()}
			return pr, ctx.Err() == nil, nil
		})
	if err != nil {
		return nil, err
	}
	// Shallow-copy per caller: the Cached flag is per-call, and the Diags
	// slice header must be private so callers may filter/append safely.
	pr := *v.(*ParseResult)
	pr.Diags = append(diag.List(nil), pr.Diags...)
	pr.Cached = src.cached()
	return &pr, nil
}

// Parse is the strict view of ParseRecover: the recovered tree when the
// source has no error diagnostics, else the sorted, de-duplicated
// diagnostics as the error (what parser.Parse returns). Both views share
// one memo entry, so a broken source is parsed once however many callers
// ask.
func (p *Pipeline) Parse(ctx context.Context, name, text string) (*ast.DesignFile, error) {
	pr, err := p.ParseRecover(ctx, name, text)
	if err != nil {
		return nil, err
	}
	if err := pr.Diags.Err(); err != nil {
		return nil, err
	}
	return pr.AST, nil
}

// Analyze runs (or reuses) the parse and sema stages for one named source
// text. The returned design is shared and must be treated as immutable.
func (p *Pipeline) Analyze(ctx context.Context, name, text string) (*sema.Design, error) {
	v, _, err := p.memo(ctx, StageSema, keyOf(semaDomain, name, text), nil,
		func(ctx context.Context) (any, bool, error) {
			df, err := p.Parse(ctx, name, text)
			if err != nil {
				return nil, false, err
			}
			if err := ctx.Err(); err != nil {
				return nil, false, fmt.Errorf("vase: compile of %s cancelled after parse: %w", name, err)
			}
			d, err := sema.AnalyzeOne(df)
			if err != nil {
				return nil, false, err
			}
			return d, ctx.Err() == nil, nil
		})
	if err != nil {
		return nil, err
	}
	return v.(*sema.Design), nil
}

// UnitResult is the memoized output of one per-unit sema run in a
// multi-file project: the analyzed design (possibly Partial) plus its
// diagnostics. The design is shared across callers and must be treated as
// immutable.
type UnitResult struct {
	Design *sema.Design
	Diags  diag.List
	// Cached reports that this call was served from the cache — the
	// incremental-elaboration tests assert on it.
	Cached bool
}

// AnalyzeUnit memoizes one per-unit sema computation under a
// caller-composed ProjectUnitKey. internal/project uses it so a one-line
// edit in a multi-file project re-runs only the units whose inputs (entity
// text, architecture text, package environment) actually changed.
func (p *Pipeline) AnalyzeUnit(ctx context.Context, key Key, compute func(context.Context) (*sema.Design, diag.List, error)) (*UnitResult, error) {
	v, src, err := p.memo(ctx, StageSema, key, nil,
		func(ctx context.Context) (any, bool, error) {
			d, dl, err := compute(ctx)
			if err != nil {
				return nil, false, err
			}
			return &UnitResult{Design: d, Diags: dl}, ctx.Err() == nil, nil
		})
	if err != nil {
		return nil, err
	}
	ur := *v.(*UnitResult)
	ur.Diags = append(diag.List(nil), ur.Diags...)
	ur.Cached = src.cached()
	return &ur, nil
}

// Compile runs the front end — parse, sema, VHIF compilation, VHIF
// validation — with each stage memoized, and the compile stage additionally
// persisted to the disk store when one is configured.
func (p *Pipeline) Compile(ctx context.Context, name, text string) (*CompileResult, error) {
	v, src, err := p.memo(ctx, StageCompile, CompileKey(name, text), frontCodec,
		func(ctx context.Context) (any, bool, error) {
			df, err := p.Parse(ctx, name, text)
			if err != nil {
				return nil, false, err
			}
			d, err := p.Analyze(ctx, name, text)
			if err != nil {
				return nil, false, err
			}
			if err := ctx.Err(); err != nil {
				return nil, false, fmt.Errorf("vase: compile of %s cancelled after analysis: %w", name, err)
			}
			m, err := compile.Compile(d)
			if err != nil {
				return nil, false, err
			}
			if err := m.Validate(); err != nil {
				return nil, false, err
			}
			cr := &CompileResult{
				Name:   d.Name,
				AST:    df,
				Sema:   d,
				Module: m,
				Text:   m.Dump(),
				Stats: FrontStats{
					ContinuousLines: d.Stats.ContinuousLines,
					Quantities:      d.Stats.QuantityCount,
					EventLines:      d.Stats.EventLines,
					Signals:         d.Stats.SignalCount,
				},
			}
			return cr, ctx.Err() == nil, nil
		})
	if err != nil {
		return nil, err
	}
	// Hand each caller its own shallow copy so the Cached flag of one call
	// never leaks into another caller's view of the shared artifact.
	cr := *v.(*CompileResult)
	cr.Cached = src.cached()
	return &cr, nil
}

// frontHeader identifies (and versions) the on-disk compile artifact.
const frontHeader = "vase-front v1"

// frontCodec serializes a CompileResult as the VHIF text plus the entity
// name and front-end metrics. The AST and symbol tables are intentionally
// not persisted — they are cheap to rebuild and would pin the cache format
// to internal data structures.
var frontCodec = &codec{
	encode: func(v any) ([]byte, error) {
		cr := v.(*CompileResult)
		return []byte(fmt.Sprintf("%s\nentity %s\nstats %d %d %d %d\n%s",
			frontHeader, cr.Name,
			cr.Stats.ContinuousLines, cr.Stats.Quantities,
			cr.Stats.EventLines, cr.Stats.Signals,
			cr.Text)), nil
	},
	decode: func(data []byte) (any, error) {
		text := string(data)
		var header, entity, stats string
		for _, part := range []*string{&header, &entity, &stats} {
			line, rest, ok := strings.Cut(text, "\n")
			if !ok {
				return nil, fmt.Errorf("pipeline: truncated front artifact")
			}
			*part, text = line, rest
		}
		if header != frontHeader {
			return nil, fmt.Errorf("pipeline: front artifact has header %q, want %q", header, frontHeader)
		}
		name, ok := strings.CutPrefix(entity, "entity ")
		if !ok {
			return nil, fmt.Errorf("pipeline: front artifact missing entity line")
		}
		fields := strings.Fields(stats)
		if len(fields) != 5 || fields[0] != "stats" {
			return nil, fmt.Errorf("pipeline: front artifact has malformed stats line %q", stats)
		}
		var fs FrontStats
		for i, dst := range []*int{&fs.ContinuousLines, &fs.Quantities, &fs.EventLines, &fs.Signals} {
			n, err := strconv.Atoi(fields[i+1])
			if err != nil {
				return nil, fmt.Errorf("pipeline: front artifact stats field %q: %w", fields[i+1], err)
			}
			*dst = n
		}
		m, err := vhif.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("pipeline: front artifact VHIF: %w", err)
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("pipeline: front artifact VHIF: %w", err)
		}
		return &CompileResult{Name: name, Module: m, Text: text, Stats: fs}, nil
	},
}

// Lint runs the source-level synthesizability linter through the lint
// stage's memo.
func (p *Pipeline) Lint(ctx context.Context, name, text string, opts lint.Options) (diag.List, error) {
	return p.lint(ctx, LintSourceKey(name, text, opts), func(ctx context.Context) (diag.List, error) {
		return lint.CheckSourceContext(ctx, name, text, opts)
	})
}

// LintVHIF runs the module-level analyzers over serialized VHIF text
// through the lint stage's memo.
func (p *Pipeline) LintVHIF(ctx context.Context, name, text string, opts lint.Options) (diag.List, error) {
	return p.lint(ctx, LintVHIFKey(name, text, opts), func(ctx context.Context) (diag.List, error) {
		return lint.CheckVHIFContext(ctx, name, text, opts)
	})
}

func (p *Pipeline) lint(ctx context.Context, key Key, run func(context.Context) (diag.List, error)) (diag.List, error) {
	v, _, err := p.memo(ctx, StageLint, key, nil,
		func(ctx context.Context) (any, bool, error) {
			dl, err := run(ctx)
			if err != nil {
				return nil, false, err
			}
			return dl, ctx.Err() == nil, nil
		})
	if err != nil {
		return nil, err
	}
	// Callers filter and re-slice findings; give each its own slice header
	// over the shared (immutable) diagnostics.
	dl := v.(diag.List)
	out := make(diag.List, len(dl))
	copy(out, dl)
	return out, nil
}

// mapValue is the memoized output of the map stage: the netlist in its
// serialized artifact form plus the search statistics. The netlist is
// stored encoded — never as a live object — because estimation annotates
// netlists in place, so every caller must materialize a private copy.
type mapValue struct {
	// Data is the netlist.Encode artifact.
	Data string
	// Stats describes the branch-and-bound search that produced the
	// artifact; cache hits report the original search's statistics.
	Stats mapper.Stats
	// Nonoptimal marks a truncated search. Such values pass between
	// concurrent waiters of one flight but are never stored in a cache.
	Nonoptimal bool
	// live carries the mapper's result directly in the rare case the
	// netlist could not be encoded; it is never cached.
	live *mapper.Result
}

// Synthesize runs the whole flow — front end plus architecture generation —
// for one named source text. The returned boolean reports whether the map
// stage was served from cache.
func (p *Pipeline) Synthesize(ctx context.Context, name, text string, opts mapper.Options) (*mapper.Result, *CompileResult, bool, error) {
	cr, err := p.Compile(ctx, name, text)
	if err != nil {
		return nil, nil, false, err
	}
	res, cached, err := p.SynthesizeText(ctx, cr.Module, cr.Text, opts)
	if err != nil {
		return nil, nil, false, err
	}
	return res, cr, cached, nil
}

// SynthesizeModule runs the map stage on a VHIF module, deriving the cache
// key from the module's canonical dump.
func (p *Pipeline) SynthesizeModule(ctx context.Context, m *vhif.Module, opts mapper.Options) (*mapper.Result, bool, error) {
	return p.SynthesizeText(ctx, m, m.Dump(), opts)
}

// SynthesizeText is SynthesizeModule for callers that already hold the
// module's serialized text (the compile stage's artifact), avoiding a
// redundant dump. text must be the canonical serialization of m.
//
// Traced runs (opts.Trace) bypass the cache entirely: a decision tree
// documents one actual search, so serving it from cache would be a lie.
// Results of truncated searches (Nonoptimal) are returned but never cached.
func (p *Pipeline) SynthesizeText(ctx context.Context, m *vhif.Module, text string, opts mapper.Options) (*mapper.Result, bool, error) {
	if opts.Trace {
		start := time.Now() //vase:walltime (stats telemetry)
		res, err := mapper.SynthesizeContext(ctx, m, opts)
		p.count(StageMap, err, time.Since(start)) //vase:walltime (stats telemetry)
		if err != nil {
			return nil, false, err
		}
		return res, false, nil
	}
	v, src, err := p.memo(ctx, StageMap, MapKey(text, opts), mapCodec,
		func(ctx context.Context) (any, bool, error) {
			res, err := mapper.SynthesizeContext(ctx, m, opts)
			if err != nil {
				return nil, false, err
			}
			mv := &mapValue{Stats: res.Stats, Nonoptimal: res.Nonoptimal}
			data, eerr := res.Netlist.Encode()
			if eerr != nil {
				// An unencodable netlist (should not happen: every name
				// originates from a VHIF identifier) falls back to the
				// live result, skipping the cache rather than failing
				// the synthesis.
				mv.live = res
				return mv, false, nil
			}
			mv.Data = data
			cacheable := ctx.Err() == nil && !res.Nonoptimal
			return mv, cacheable, nil
		})
	if err != nil {
		return nil, false, err
	}
	res, err := p.materialize(v.(*mapValue), m, opts)
	if err != nil {
		return nil, false, err
	}
	return res, src.cached(), nil
}

// materialize turns a map-stage value into a private mapper.Result: the
// netlist stage decodes a fresh object graph and the estimate stage
// re-derives the performance report on it, applying the same process and
// system-specification defaulting as the mapper. Both run per call — cached
// or not — because estimation writes into the netlist's components.
func (p *Pipeline) materialize(mv *mapValue, m *vhif.Module, opts mapper.Options) (*mapper.Result, error) {
	if mv.live != nil {
		return mv.live, nil
	}
	start := time.Now() //vase:walltime (stats telemetry)
	nl, err := netlist.Decode(mv.Data)
	p.count(StageNetlist, err, time.Since(start)) //vase:walltime (stats telemetry)
	if err != nil {
		return nil, fmt.Errorf("pipeline: netlist artifact: %w", err)
	}
	proc := opts.Process
	if proc.Name == "" {
		proc = estimate.SCN20
	}
	sys := opts.System
	if sys.Bandwidth == 0 {
		sys = mapper.SystemSpecFor(m)
	}
	start = time.Now() //vase:walltime (stats telemetry)
	rep, err := nl.Estimate(proc, sys)
	p.count(StageEstimate, err, time.Since(start)) //vase:walltime (stats telemetry)
	if err != nil {
		return nil, fmt.Errorf("pipeline: estimate: %w", err)
	}
	return &mapper.Result{
		Netlist:    nl,
		Report:     rep,
		Stats:      mv.Stats,
		Nonoptimal: mv.Nonoptimal,
	}, nil
}

// mapHeader identifies (and versions) the on-disk map artifact: a stats
// line, then the netlist.Encode text (which carries its own header).
const mapHeader = "vase-map v2"

var mapCodec = &codec{
	encode: func(v any) ([]byte, error) {
		mv := v.(*mapValue)
		if mv.live != nil {
			return nil, fmt.Errorf("pipeline: live map value is not serializable")
		}
		s := mv.Stats
		return []byte(fmt.Sprintf("%s\nstats %d %d %d %d %d %g %d\n%s",
			mapHeader,
			s.NodesVisited, s.CompleteMappings, s.Pruned, s.Infeasible,
			s.BestOpAmps, s.BestAreaUm2,
			s.Elapsed.Nanoseconds(),
			mv.Data)), nil
	},
	decode: func(data []byte) (any, error) {
		text := string(data)
		header, rest, ok := strings.Cut(text, "\n")
		if !ok || header != mapHeader {
			return nil, fmt.Errorf("pipeline: map artifact has header %q, want %q", header, mapHeader)
		}
		statsLine, body, ok := strings.Cut(rest, "\n")
		if !ok {
			return nil, fmt.Errorf("pipeline: truncated map artifact")
		}
		fields := strings.Fields(statsLine)
		if len(fields) != 8 || fields[0] != "stats" {
			return nil, fmt.Errorf("pipeline: map artifact has malformed stats line %q", statsLine)
		}
		var s mapper.Stats
		ints := []*int{&s.NodesVisited, &s.CompleteMappings, &s.Pruned, &s.Infeasible, &s.BestOpAmps}
		for i, dst := range ints {
			n, err := strconv.Atoi(fields[i+1])
			if err != nil {
				return nil, fmt.Errorf("pipeline: map artifact stats field %q: %w", fields[i+1], err)
			}
			*dst = n
		}
		area, err := strconv.ParseFloat(fields[6], 64)
		if err != nil {
			return nil, fmt.Errorf("pipeline: map artifact area %q: %w", fields[6], err)
		}
		s.BestAreaUm2 = area
		ns, err := strconv.ParseInt(fields[7], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pipeline: map artifact elapsed %q: %w", fields[7], err)
		}
		s.Elapsed = time.Duration(ns)
		// Validate the payload now so a corrupt artifact registers as a
		// decode failure (recompute) instead of a later materialize error.
		if _, err := netlist.Decode(body); err != nil {
			return nil, fmt.Errorf("pipeline: map artifact netlist: %w", err)
		}
		return &mapValue{Data: body, Stats: s}, nil
	},
}
