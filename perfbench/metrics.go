package main

import (
	"sort"
	"strings"

	"vase/internal/pipeline"
)

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndNames and perLayerNames are the metrics BENCHMARK.json lists,
// in its order; every workload prints all of them.
var endToEndNames = []string{
	"ops_per_cpu_s", "cpu_p50_ms", "cpu_p90_ms", "setup_s",
	"peak_rss_mb", "opamps_per_op", "area_um2_per_op",
}

var perLayerNames = []string{
	"parser.ms_per_op", "sema.ms_per_op", "compile.ms_per_op", "compile.vhif_blocks_per_op",
	"lint.ms_per_op", "absint.ms_per_op",
	"mapper.ms_per_op", "mapper.nodes_per_op", "mapper.pruned_per_op", "mapper.nodes_per_s", "mapper.capped_share",
	"sim.ms_per_op", "sim.steps_per_op", "sim.us_per_step", "assertlang.ms_per_op",
	"mna.elaborate_ms_per_op", "mna.exact.dc_ms_per_op", "mna.exact.tran_ms_per_op",
	"mna.fast.dc_ms_per_op", "mna.fast.tran_ms_per_op",
	"mna.exact.factorizations_per_op", "mna.newton_iters_per_op", "mna.fast.reuse_share",
	"mna.fast.fallbacks_per_op", "mna.fill_per_op", "mna.dc_failed_share",
	"pipeline.hit_share",
	"pipeline.parse.compute_ms", "pipeline.sema.compute_ms", "pipeline.compile.compute_ms",
	"pipeline.lint.compute_ms", "pipeline.ranges.compute_ms", "pipeline.map.compute_ms",
	"pipeline.estimate.compute_ms", "pipeline.netlist.compute_ms", "pipeline.spice.compute_ms",
	"server.lint.p50_ms", "server.synthesize.p50_ms", "server.simulate.p50_ms", "server.circuit.p50_ms",
	"server.overhead_ms_per_req", "server.resp_kb_per_req",
	"runtime.alloc_mb_per_op", "runtime.gc_cycles_per_op", "trace.overhead_share",
}

// endToEnd computes the untraced run's metrics: the BENCHMARK.json ones,
// timed on the process's CPU clock (see cpuNow), then the ones only
// printed: the same figures on the wall clock, p99 where it has ten samples
// beyond it, and the error rate, which BENCHMARK.json carries as
// failed/attempted.
func endToEnd(r *runResult) []metric {
	ms := []metric{
		{"ops_per_cpu_s", median(r.CPURate), "ops/s"},
		{"cpu_p50_ms", quantile(r.CPU, 0.50), "ms"},
		{"cpu_p90_ms", quantile(r.CPU, 0.90), "ms"},
		{"setup_s", median(r.SetupCPU), "s"},
		{"peak_rss_mb", median(r.PeakRSSMB), "MB"},
		{"opamps_per_op", mean(r.OpAmps), "opamps"},
		{"area_um2_per_op", mean(r.AreaUm2), "um2"},
		{"throughput_ops_s", median(r.PassRate), "ops/s"},
		{"latency_p50_ms", quantile(r.Lat, 0.50), "ms"},
		{"latency_p90_ms", quantile(r.Lat, 0.90), "ms"},
		{"setup_wall_s", median(r.SetupWall), "s"},
	}
	if float64(len(r.Lat))*0.01 >= 10 {
		ms = append(ms, metric{"cpu_p99_ms", quantile(r.CPU, 0.99), "ms"},
			metric{"latency_p99_ms", quantile(r.Lat, 0.99), "ms"})
	}
	return append(ms, metric{"error_rate", float64(r.Failed) / float64(r.Attempted), "share"})
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedOps counts the ops of the traced passes.
func tracedOps(r *runResult) float64 { return float64(len(r.TracedLat)) }

// perLayer computes the traced run's layer metrics. Every workload prints
// every one of them; a layer the workload never calls reads 0. A layer's
// ms_per_op is its self time over all traced ops, so the layers' figures
// add up to the mean op latency and one layer's figure moves only when
// that layer's own time does.
func perLayer(r *runResult) []metric {
	ops := tracedOps(r)
	c := r.counts
	layerMS := func(layer string) float64 { return ratio(selfMS(r.rows, layer), ops) }
	circuitOps := c["mna.circuit_ops"]
	untraced := mean(r.Lat)
	ms := []metric{
		{"parser.ms_per_op", layerMS("parser"), "ms"},
		{"sema.ms_per_op", layerMS("sema"), "ms"},
		{"compile.ms_per_op", layerMS("compile"), "ms"},
		{"compile.vhif_blocks_per_op", ratio(c["compile.vhif_blocks"], c["compile.modules"]), "count"},
		{"lint.ms_per_op", layerMS("lint"), "ms"},
		// lint.CheckSource runs absint.Analyze inside itself, where no span
		// reaches; synth's traced passes replay the analysis outside the op,
		// so this time is also part of lint's.
		{"absint.ms_per_op", ratio(c["absint.replay_ms"], ops), "ms"},
		{"mapper.ms_per_op", layerMS("mapper"), "ms"},
		{"mapper.nodes_per_op", ratio(c["mapper.nodes"], c["mapper.searches"]), "count"},
		{"mapper.pruned_per_op", ratio(c["mapper.pruned"], c["mapper.searches"]), "count"},
		{"mapper.nodes_per_s", ratio(c["mapper.nodes"], selfMS(r.rows, "mapper")/1e3), "nodes/s"},
		{"mapper.capped_share", ratio(c["mapper.capped"], c["mapper.searches"]), "share"},
		{"sim.ms_per_op", layerMS("sim"), "ms"},
		{"sim.steps_per_op", ratio(c["sim.steps"], c["sim.runs"]), "count"},
		{"sim.us_per_step", ratio(selfMS(r.rows, "sim")*1e3, c["sim.steps"]), "us"},
		{"assertlang.ms_per_op", layerMS("assertlang"), "ms"},
		{"mna.elaborate_ms_per_op", layerMS("mna.elaborate"), "ms"},
		{"mna.exact.dc_ms_per_op", layerMS("mna.exact.dc"), "ms"},
		{"mna.exact.tran_ms_per_op", layerMS("mna.exact.tran"), "ms"},
		{"mna.fast.dc_ms_per_op", layerMS("mna.fast.dc"), "ms"},
		{"mna.fast.tran_ms_per_op", layerMS("mna.fast.tran"), "ms"},
		{"mna.exact.factorizations_per_op", ratio(c["mna.exact.factorizations"], c["mna.exact.ops"]), "count"},
		{"mna.newton_iters_per_op", ratio(c["mna.newton_iters"], circuitOps), "count"},
		{"mna.fast.reuse_share", ratio(c["mna.fast.reuses"], c["mna.fast.reuses"]+c["mna.fast.factorizations"]), "share"},
		{"mna.fast.fallbacks_per_op", ratio(c["mna.fast.fallbacks"], c["mna.fast.ops"]), "count"},
		{"mna.fill_per_op", ratio(c["mna.fill"], circuitOps), "count"},
		{"mna.dc_failed_share", ratio(c["mna.dc_failed"], circuitOps), "share"},
		{"pipeline.hit_share", ratio(c["pipeline.hits"], c["pipeline.lookups"]), "share"},
	}
	// Per request, from the deltas of the counters vased's /metrics renders.
	for st := pipeline.Stage(0); st < pipeline.NumStages; st++ {
		name := "pipeline." + st.String() + ".compute_ms"
		ms = append(ms, metric{name, ratio(c[name], ops), "ms"})
	}
	for _, ep := range []string{"lint", "synthesize", "simulate", "circuit"} {
		p50 := 0.0
		if lat := r.LatKind[ep]; len(lat) > 0 {
			p50 = quantile(lat, 0.5)
		}
		ms = append(ms, metric{"server." + ep + ".p50_ms", p50, "ms"})
	}
	return append(ms,
		// Client latency minus the pipeline compute the request caused, over
		// the lint, synthesize and circuit requests.
		metric{"server.overhead_ms_per_req", ratio(selfMS(r.rows, "server"), c["server.requests.lint"]+
			c["server.requests.synthesize"]+c["server.requests.circuit"]), "ms"},
		metric{"server.resp_kb_per_req", ratio(c["server.resp_bytes"]/1024, ops), "KB"},
		metric{"runtime.alloc_mb_per_op", ratio(r.AllocMB, float64(len(r.Lat))), "MB"},
		metric{"runtime.gc_cycles_per_op", ratio(r.GCCycles, float64(len(r.Lat))), "count"},
		metric{"trace.overhead_share", ratio(mean(r.TracedLat)-untraced, untraced), "share"},
	)
}

// serveLayers charges serve's traced request time to layers. Spans reach
// only the HTTP round trip, so the pipeline's own counters split it: each
// stage's compute time goes to the layer the stage calls, and the rest of
// a request is the server's (for behavioral simulate requests that rest
// includes the RK4 run, which is not a pipeline stage, so it is charged
// to sim).
func serveLayers(r *runResult) []layerRow {
	c := r.counts
	httpMS := map[string]float64{}
	for _, s := range r.spans {
		if s.Name == "http" {
			ep := strings.TrimPrefix(r.spans[s.Parent].Name, "op.")
			httpMS[ep] += float64(s.End-s.Start) / 1e6
		}
	}
	stage := func(st string) float64 { return c["pipeline."+st+".compute_ms"] }
	calls := func(st string) int { return int(c["pipeline."+st+".misses"]) }
	rows := []layerRow{
		{"parser", calls("parse"), stage("parse")},
		{"sema", calls("sema"), stage("sema")},
		{"compile", calls("compile"), stage("compile") - stage("parse") - stage("sema")},
		{"lint", calls("lint"), stage("lint")},
		{"mapper", calls("map"), stage("map")},
		{"netlist", calls("estimate") + calls("netlist"), stage("estimate") + stage("netlist")},
		{"mna.exact.tran", calls("spice"), stage("spice")},
		{"sim", int(c["server.requests.simulate"]), httpMS["simulate"] - c["pipeline.compute_ms.simulate"]},
		{"bench", int(tracedOps(r)), selfMS(r.rows, "bench")},
	}
	server := layerRow{Layer: "server"}
	for _, ep := range []string{"lint", "synthesize", "circuit"} {
		server.Calls += int(c["server.requests."+ep])
		server.SelfMS += httpMS[ep] - c["pipeline.compute_ms."+ep]
	}
	rows = append(rows, server)
	sort.Slice(rows, func(a, b int) bool { return rows[a].SelfMS > rows[b].SelfMS })
	return rows
}
