// Command perfbench is the repository's benchmark: three workloads (synth,
// simulate, serve) driven through the layers' public functions, every
// output checked against goldens, end-to-end metrics from untraced passes
// and per-layer attribution from traced ones. See README.md.
//
//	go run . -workload synth -seed 1 -seconds 30 -trace 0
//	go run . -workload all -seconds 30    # every end-to-end metric of every workload
//	go run . -workload serve -seed 1 -seconds 30 -trace 1
//	go run . -regen                       # rewrite goldens.json and reference.bin.gz
//	go run . -workload simulate -steady 10 -record STEADINESS.md
//	go run . -ledger LEDGER.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		wl      = flag.String("workload", "", "workload: synth, simulate, serve, or all (the three in turn)")
		seed    = flag.Int64("seed", 1, "workload seed: fixes the order of the op list")
		seconds = flag.Float64("seconds", 30, "seconds of op time per run, in whole passes")
		trace   = flag.Int("trace", 0, "1 = traced run: print per-layer metrics")
		report  = flag.String("report", "", "also write the run's full report as JSON to this file")
		regen   = flag.Bool("regen", false, "recompute goldens.json and reference.bin.gz, then exit")
		steady  = flag.Int("steady", 0, "run the workload this many times (seeds seed..seed+k-1) and print each metric's spread")
		record  = flag.String("record", "", "with -steady: append the spread table to this markdown file")
		ledger  = flag.String("ledger", "", "run every workload traced and write the layer-attribution ledger to this file")
	)
	flag.Parse()
	var err error
	switch {
	case *regen:
		err = regenerate()
	case *ledger != "":
		err = writeLedger(*ledger, *seed, *seconds)
	case *steady > 0:
		err = steadiness(*wl, *seed, *seconds, *steady, *record)
	default:
		names := []string{*wl}
		if *wl == "all" {
			names = []string{"synth", "simulate", "serve"}
		}
		for _, name := range names {
			if err = benchmark(config{
				workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: fullScale,
			}, *report); err != nil {
				break
			}
		}
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// newWorkload loads the goldens and builds the named workload.
func newWorkload(name string, s scale) (*workload, error) {
	g, err := loadGoldens(goldenFile)
	if err != nil {
		return nil, err
	}
	var refs map[string]refTrace
	if name == "simulate" {
		if refs, err = loadReferences(referenceFile); err != nil {
			return nil, err
		}
	}
	return buildWorkload(name, s, g, refs)
}

func buildWorkload(name string, s scale, g *goldens, refs map[string]refTrace) (*workload, error) {
	switch name {
	case "synth":
		return synthWorkload(s, g), nil
	case "simulate":
		return simulateWorkload(s, g, refs), nil
	case "serve":
		return serveWorkload(s, g)
	}
	return nil, fmt.Errorf("unknown -workload %q (want synth, simulate or serve)", name)
}

type meta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// commit names the checked-out revision when the benchmark runs inside a
// git work tree, "unknown" otherwise.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

type report struct {
	Meta      meta       `json:"meta"`
	Passes    int        `json:"passes"`
	Samples   int        `json:"samples"`
	Timed     float64    `json:"timed_s"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Failures  []string   `json:"failures,omitempty"`
	OpKeys    []string   `json:"op_keys"`
	Metrics   []metric   `json:"metrics"`
	Rows      []layerRow `json:"rows,omitempty"`
	OpMS      float64    `json:"op_ms,omitempty"`
	TracedOps int        `json:"traced_ops,omitempty"`
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func benchmark(cfg config, reportPath string) error {
	w, err := newWorkload(cfg.workload, cfg.scale)
	if err != nil {
		return err
	}
	r, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	rep := report{
		Meta: meta{
			Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Go: runtime.Version(), Commit: commit(),
		},
		Passes: r.Passes, Samples: len(r.Lat), Timed: r.Timed,
		Attempted: r.Attempted, Failed: r.Failed, Failures: r.Failures, OpKeys: r.OpKeys,
	}
	names := endToEndNames
	if cfg.trace {
		rep.Metrics = perLayer(r)
		rep.Rows, rep.OpMS, rep.TracedOps = r.rows, r.opMS, len(r.TracedLat)
		names = perLayerNames
	} else {
		rep.Metrics = endToEnd(r)
	}

	m := rep.Meta
	fmt.Printf("# perfbench workload=%s seed=%d trace=%v\n", m.Workload, m.Seed, m.Trace)
	fmt.Printf("# host gomaxprocs=%d nproc=%d go=%s commit=%s\n", m.GOMAXPROCS, m.NumCPU, m.Go, m.Commit)
	fmt.Printf("# %d ops per pass, %d passes, %d untraced samples, %.1f s timed\n",
		len(r.OpKeys), r.Passes, len(r.Lat), r.Timed)
	kinds := make([]string, 0, len(r.LatKind))
	for k := range r.LatKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		v := r.LatKind[k]
		fmt.Printf("# %-10s %5d samples  p50 %9.3f ms  p90 %9.3f ms  max %9.3f ms\n",
			k, len(v), quantile(v, 0.5), quantile(v, 0.9), quantile(v, 1))
	}
	for _, f := range r.Failures {
		fmt.Printf("# FAILED %s\n", f)
	}
	if cfg.trace {
		fmt.Printf("# layer attribution over %d traced ops (%.1f ms of op time):\n", len(r.TracedLat), r.opMS)
		for _, row := range r.rows {
			fmt.Printf("#   %-16s %8d calls %10.3f ms/op %6.1f%%\n", row.Layer, row.Calls,
				ratio(row.SelfMS, float64(len(r.TracedLat))), 100*ratio(row.SelfMS, r.opMS))
		}
	}
	for _, mt := range rep.Metrics {
		fmt.Printf("%s %s %.6g %s\n", cfg.workload, mt.Name, mt.Value, mt.Unit)
	}

	if reportPath != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := writeFile(reportPath, data); err != nil {
			return err
		}
	}
	if cfg.trace {
		data, err := json.Marshal(r.spans)
		if err != nil {
			return err
		}
		if err := writeFile("out/spans-"+cfg.workload+".json", data); err != nil {
			return err
		}
	}

	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]map[string]any{}}
	byName := map[string]metric{}
	for _, mt := range rep.Metrics {
		byName[mt.Name] = mt
	}
	for _, n := range names {
		mt, ok := byName[n]
		if !ok {
			return fmt.Errorf("metric %s not computed", n)
		}
		res.Metrics[n] = map[string]any{"value": mt.Value, "unit": mt.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
