package main

import (
	"fmt"

	"vase/internal/corpus"
	"vase/internal/gen"
	"vase/internal/mapper"
)

const (
	// ladderSeed is the campaign's default seed (vasegen -seed 1). Every
	// workload draws its generated specs from this one ladder, so the
	// checked-in goldens cover every op any --seed can schedule; --seed
	// picks the order the ops run in.
	ladderSeed = 1
	// exhaustiveQuants is the campaign's search policy: exhaustive
	// branch-and-bound up to this many quantities, first-fit above.
	exhaustiveQuants = 12
	// maxNodes caps every search. At the mapper's default cap (1<<22) a
	// binding search runs 14-27 s, longer than a whole run, so one spec
	// would own the run's total. At 1<<15 a capped search costs 0.1-0.3 s
	// and returns its anytime incumbent, which the goldens pin.
	maxNodes = 1 << 15
)

// design is one VASS specification the workloads feed through the layers.
type design struct {
	Key    string // golden key: "app/<key>" or "gen/<index>"
	File   string // source name handed to the front end
	Source string
	App    *corpus.Application // Table 1 application, or nil
	Spec   *gen.Spec           // generated ladder spec, or nil
}

func appDesigns() []*design {
	var out []*design
	for _, a := range corpus.Applications() {
		out = append(out, &design{Key: "app/" + a.Key, File: a.Key + ".vhd", Source: a.Source, App: a})
	}
	return out
}

func ladderDesign(i int) *design {
	sp := gen.Generate(ladderSeed, i, gen.MixedSize(i))
	return &design{Key: fmt.Sprintf("gen/%d", i), File: sp.Name + ".vhd", Source: sp.Source, Spec: sp}
}

func ladder(n int) []*design {
	out := make([]*design, n)
	for i := range out {
		out[i] = ladderDesign(i)
	}
	return out
}

// searchOptions is the campaign's policy on one worker: in mapper.Options,
// Workers 0 would mean GOMAXPROCS and make the search's timing depend on
// the host.
func searchOptions(d *design) mapper.Options {
	opts := mapper.DefaultOptions()
	opts.Workers = 1
	opts.MaxNodes = maxNodes
	if d.Spec != nil && d.Spec.Quants() > exhaustiveQuants {
		opts.FirstFit = true
	}
	return opts
}

// scale sizes the op lists. fullScale is what BENCHMARK.json runs;
// tinyScale, a subset of the same designs, keeps the benchmark's own test
// fast while still touching every layer.
type scale struct {
	synthSpecs int   // ladder prefix synthesized by synth
	simSpecs   []int // ladder indices simulated by simulate
	serveScan  int   // ladder prefix serve draws toy and small specs from
	serveApps  int   // Table 1 applications in serve's working set
	serveReps  int   // rounds per serve pass (see serveSchedule)
	minPasses  map[string]int
}

var fullScale = scale{
	synthSpecs: 128,
	// Specs 0-7 hold two of each of toy, small and medium grade. Spec 9
	// stands in for spec 5, whose search the node cap cuts short: a capped
	// search costs 0.13-0.26 s and would own most of the set-up time.
	// Toy specs 12 and 14 make the fast tier fall back to exact Newton,
	// and spec 14's DC fails on every tier. Index 15 is the first large
	// spec.
	simSpecs:  []int{0, 1, 2, 3, 4, 6, 7, 9, 12, 14, 15},
	serveScan: 32,
	serveApps: 5,
	serveReps: 6,
	// Enough passes that p90 has ten samples beyond it (p99 too, on
	// serve), and that throughput is a median of at least three passes.
	minPasses: map[string]int{"synth": 3, "simulate": 4, "serve": 5},
}

var tinyScale = scale{
	synthSpecs: 4,
	simSpecs:   []int{0, 4, 14},
	serveScan:  4,
	serveApps:  1,
	serveReps:  2,
	minPasses:  map[string]int{"synth": 1, "simulate": 1, "serve": 1},
}
