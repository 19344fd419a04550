// Equivalence layer for the search by independent parts: for every corpus
// design and every ablation combination, the parts search must return
// exactly the mapping the one-part search returns — identical netlist bytes,
// cost and component mix. Trace forces one part, so the same comparison
// also holds the contract that tracing does not change the result.
package mapper_test

import (
	"strconv"
	"testing"

	"vase/internal/compile"
	"vase/internal/corpus"
	"vase/internal/mapper"
	"vase/internal/parser"
	"vase/internal/sema"
	"vase/internal/vhif"
)

// compileVASS compiles a VASS source to its VHIF module.
func compileVASS(t testing.TB, name, src string) *vhif.Module {
	t.Helper()
	df, err := parser.Parse(name+".vhd", src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	d, err := sema.AnalyzeOne(df)
	if err != nil {
		t.Fatalf("%s: analyze: %v", name, err)
	}
	m, err := compile.Compile(d)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	return m
}

type namedModule struct {
	key string
	m   *vhif.Module
}

// corpusModules compiles every corpus design: the paper's five benchmark
// applications plus all extra designs.
func corpusModules(t testing.TB) []namedModule {
	t.Helper()
	var out []namedModule
	for _, app := range corpus.Applications() {
		out = append(out, namedModule{app.Key, compileVASS(t, app.Key, app.Source)})
	}
	for _, app := range corpus.Extras() {
		out = append(out, namedModule{app.Key, compileVASS(t, app.Key, app.Source)})
	}
	return out
}

// ablations enumerates the option combinations whose parts search must
// reproduce the one-part mapping exactly. StrongBound is combined with
// NoSharing (its admissibility condition); it searches as one part, so
// there the comparison checks only that Trace leaves the result alone.
var ablations = []struct {
	name string
	mut  func(*mapper.Options)
}{
	{"default", func(o *mapper.Options) {}},
	{"firstfit", func(o *mapper.Options) { o.FirstFit = true }},
	{"nosharing", func(o *mapper.Options) { o.NoSharing = true }},
	{"firstfit-nosharing", func(o *mapper.Options) { o.FirstFit = true; o.NoSharing = true }},
	{"strongbound", func(o *mapper.Options) { o.StrongBound = true; o.NoSharing = true }},
	{"nosequencing", func(o *mapper.Options) { o.NoSequencing = true }},
	{"power", func(o *mapper.Options) { o.Objective = mapper.MinimizePower }},
	{"power-nosharing", func(o *mapper.Options) { o.Objective = mapper.MinimizePower; o.NoSharing = true }},
	{"power-strongbound", func(o *mapper.Options) {
		o.Objective = mapper.MinimizePower
		o.StrongBound = true
		o.NoSharing = true
	}},
	{"power-firstfit", func(o *mapper.Options) { o.Objective = mapper.MinimizePower; o.FirstFit = true }},
}

// assertSameMapping compares two synthesis results for byte-identical
// netlists and matching cost reports.
func assertSameMapping(t *testing.T, want, got *mapper.Result) {
	t.Helper()
	if w, g := want.Netlist.Dump(), got.Netlist.Dump(); w != g {
		t.Fatalf("netlists differ\n--- want ---\n%s\n--- got ---\n%s", w, g)
	}
	if w, g := want.Netlist.Summary(), got.Netlist.Summary(); w != g {
		t.Errorf("component mix differs: want %q, got %q", w, g)
	}
	if w, g := want.Netlist.OpAmpCount(), got.Netlist.OpAmpCount(); w != g {
		t.Errorf("op amp count differs: want %d, got %d", w, g)
	}
	if w, g := want.Report.AreaUm2, got.Report.AreaUm2; w != g {
		t.Errorf("area differs: want %g, got %g", w, g)
	}
	if w, g := want.Report.PowerMW, got.Report.PowerMW; w != g {
		t.Errorf("power differs: want %g, got %g", w, g)
	}
}

// TestPartsMatchOnePart compares the untraced search, which runs the
// independent parts one at a time, with the traced search, which runs the
// design as one part.
func TestPartsMatchOnePart(t *testing.T) {
	for _, nm := range corpusModules(t) {
		for _, ab := range ablations {
			t.Run(nm.key+"/"+ab.name, func(t *testing.T) {
				opts := mapper.DefaultOptions()
				ab.mut(&opts)
				parts, partsErr := mapper.Synthesize(nm.m, opts)
				opts.Trace = true
				one, oneErr := mapper.Synthesize(nm.m, opts)
				if (oneErr == nil) != (partsErr == nil) {
					t.Fatalf("feasibility differs: one part err=%v, parts err=%v", oneErr, partsErr)
				}
				if oneErr != nil {
					return
				}
				if one.Nonoptimal || parts.Nonoptimal {
					t.Fatalf("search capped: one part %v, parts %v", one.Nonoptimal, parts.Nonoptimal)
				}
				assertSameMapping(t, one, parts)
			})
		}
	}
}

// TestParallelMatchesSequential holds the compatibility contract of the
// deprecated Options.Workers field: a run that asks for several workers
// returns exactly the mapping of a run that asks for one.
func TestParallelMatchesSequential(t *testing.T) {
	workerCounts := []int{2, 4, 8}
	if testing.Short() {
		workerCounts = []int{4}
	}
	for _, nm := range corpusModules(t) {
		for _, ab := range ablations {
			seqOpts := mapper.DefaultOptions()
			seqOpts.Workers = 1
			ab.mut(&seqOpts)
			seq, seqErr := mapper.Synthesize(nm.m, seqOpts)
			for _, workers := range workerCounts {
				t.Run(nm.key+"/"+ab.name+"/workers="+strconv.Itoa(workers), func(t *testing.T) {
					parOpts := seqOpts
					parOpts.Workers = workers
					par, parErr := mapper.Synthesize(nm.m, parOpts)
					if (seqErr == nil) != (parErr == nil) {
						t.Fatalf("feasibility differs: workers=1 err=%v, workers=%d err=%v", seqErr, workers, parErr)
					}
					if seqErr != nil {
						return
					}
					assertSameMapping(t, seq, par)
				})
			}
		}
	}
}

// TestParallelStrongBoundSharingDeterministic covers the one inadmissible
// configuration (StrongBound with sharing enabled), which searches the
// design as one part: repeated runs, with or without the ignored Workers
// field, must return the same mapping.
func TestParallelStrongBoundSharingDeterministic(t *testing.T) {
	for _, nm := range corpusModules(t) {
		opts := mapper.DefaultOptions()
		opts.StrongBound = true // sharing stays enabled: inadmissible bound
		a, errA := mapper.Synthesize(nm.m, opts)
		opts.Workers = 4
		b, errB := mapper.Synthesize(nm.m, opts)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: feasibility flapped: %v vs %v", nm.key, errA, errB)
		}
		if errA != nil {
			continue
		}
		assertSameMapping(t, a, b)
	}
}

// TestParallelDeterministic runs the same configuration twice and demands
// bit-identical outcomes.
func TestParallelDeterministic(t *testing.T) {
	mods := corpusModules(t)
	for _, nm := range mods {
		opts := mapper.DefaultOptions()
		a, errA := mapper.Synthesize(nm.m, opts)
		b, errB := mapper.Synthesize(nm.m, opts)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: feasibility flapped: %v vs %v", nm.key, errA, errB)
		}
		if errA != nil {
			continue
		}
		assertSameMapping(t, a, b)
	}
}

// TestParallelStatsSane checks the search-effort accounting summed over
// the parts: node counts stay within the full-enumeration upper bound.
func TestParallelStatsSane(t *testing.T) {
	for _, nm := range corpusModules(t) {
		unbounded := mapper.DefaultOptions()
		unbounded.NoBounding = true
		full, err := mapper.Synthesize(nm.m, unbounded)
		if err != nil {
			continue
		}
		opts := mapper.DefaultOptions()
		par, err := mapper.Synthesize(nm.m, opts)
		if err != nil {
			t.Fatalf("%s: %v", nm.key, err)
		}
		st := par.Stats
		if st.NodesVisited <= 0 {
			t.Errorf("%s: NodesVisited = %d, want > 0", nm.key, st.NodesVisited)
		}
		if st.CompleteMappings < 1 {
			t.Errorf("%s: CompleteMappings = %d, want >= 1", nm.key, st.CompleteMappings)
		}
		if st.NodesVisited > full.Stats.NodesVisited {
			t.Errorf("%s: visited %d nodes, above the full-enumeration bound %d",
				nm.key, st.NodesVisited, full.Stats.NodesVisited)
		}
	}
}
