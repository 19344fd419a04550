package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"vase/internal/mna"
)

// regenerate recomputes every golden at the full scale from the layers
// themselves. Circuit goldens come from SolverReference, the oracle: the
// exact tier must reproduce them byte for byte and the fast tier must stay
// inside the ErrorBudget, so regeneration fails when either does not.
func regenerate() error {
	g := &goldens{
		LadderSeed: ladderSeed, MaxNodes: maxNodes,
		Designs: map[string]designObs{}, Architectures: map[string]string{}, Behavioral: map[string]rk4Obs{},
		Circuits: map[string]circuitGolden{}, Serve: map[string]respObs{},
	}
	for _, d := range append(appDesigns(), ladder(fullScale.synthSpecs)...) {
		obs, m, sd := synthDesign(nil, -1, d)
		if obs.Err != "" {
			return fmt.Errorf("%s: %s", d.Key, obs.Err)
		}
		if d.App != nil {
			if msg := table1Mismatch(d.App, sd, m); msg != "" {
				return fmt.Errorf("%s: %s", d.Key, msg)
			}
		}
		g.Designs[d.Key] = obs
		if obs.Nonoptimal {
			fmt.Printf("capped search: %s (%s)\n", d.Key, d.Spec.Size)
		}
	}

	var refs []refTrace
	for _, d := range simDesigns(fullScale) {
		sd, err := buildSimDesign(d, "")
		if err != nil {
			return fmt.Errorf("%s: %w", d.Key, err)
		}
		if m := designMismatch(d, sd.obs, g.Designs[d.Key]); m != "" {
			return fmt.Errorf("%s: simulate's set-up synthesis: %s", d.Key, m)
		}
		if sd.circuit {
			g.Architectures[d.Key] = sd.arch
		}
		g.Behavioral[d.Key] = rk4(nil, -1, sd)
		if !sd.circuit {
			continue
		}
		ref, err := runCircuit(nil, -1, sd, mna.SolverReference, "reference")
		if err != nil {
			return fmt.Errorf("%s reference: %w", d.Key, err)
		}
		exact, err := runCircuit(nil, -1, sd, mna.SolverAuto, "exact")
		if err != nil {
			return fmt.Errorf("%s exact: %w", d.Key, err)
		}
		if exact.obs != ref.obs {
			return fmt.Errorf("%s: exact tier %+v differs from the reference %+v", d.Key, exact.obs, ref.obs)
		}
		t := newTracer(true)
		fast, err := runCircuit(t, -1, sd, mna.SolverFast, "fast")
		if err != nil {
			return fmt.Errorf("%s fast: %w", d.Key, err)
		}
		cg := circuitGolden{Reference: ref.obs, FastDCErr: fast.obs.DCErr, FastTranErr: fast.obs.TranErr}
		rt := refTrace{Key: d.Key, DC: ref.dc}
		if ref.tr != nil {
			rt.Time, rt.V = ref.tr.Time, ref.tr.V
		}
		if msg := fastMismatch(fast, cg, rt); msg != "" {
			return fmt.Errorf("%s: %s", d.Key, msg)
		}
		g.Circuits[d.Key] = cg
		refs = append(refs, rt)
		fmt.Printf("circuit %s: dim %d, reference dc_err=%q tran_err=%q, fast fallbacks %.0f\n",
			d.Key, ref.el.Circuit.NumNodes(), ref.obs.DCErr, ref.obs.TranErr, t.counts["mna.fast.fallbacks"])
	}

	ls, err := startServer()
	if err != nil {
		return err
	}
	defer ls.stop()
	for _, d := range serveDesigns(fullScale, g) {
		reqs, err := designRequests(d)
		if err != nil {
			return err
		}
		for _, rq := range reqs {
			// The second request takes the hit path; both must agree.
			r1, err := ls.observe(rq)
			if err != nil {
				return fmt.Errorf("%s: %w", rq.key, err)
			}
			r2, err := ls.observe(rq)
			if err != nil {
				return fmt.Errorf("%s: %w", rq.key, err)
			}
			first, again := r1.obs, r2.obs
			if first != again {
				return fmt.Errorf("%s: cached reply %+v differs from the first %+v", rq.key, again, first)
			}
			if rq.endpoint == "synthesize" && first.Body != g.Designs[d.Key].Netlist {
				return fmt.Errorf("%s: vased netlist %s differs from synth's %s", rq.key, first.Body, g.Designs[d.Key].Netlist)
			}
			if first.Status != 200 {
				fmt.Printf("serve %s answers %d\n", rq.key, first.Status)
			}
			g.Serve[rq.key] = first
		}
	}
	if err := g.save(goldenFile); err != nil {
		return err
	}
	return saveReferences(referenceFile, refs)
}

// child runs this binary once more with the given flags and loads the
// report it writes.
func child(path string, args ...string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append(args, "-report", path)...)
	cmd.Stderr = os.Stderr
	if out, err := cmd.Output(); err != nil {
		return nil, fmt.Errorf("%s %s: %w\n%s", exe, strings.Join(args, " "), err, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	if rep.Failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d ops failed: %v", strings.Join(args, " "), rep.Failed, rep.Attempted, rep.Failures)
	}
	return &rep, nil
}

// steadiness runs a workload k times, one process per run with seeds
// seed..seed+k-1 as the acceptance check does, and prints each end-to-end
// metric's median, quartiles, spread (IQR over median) and range.
func steadiness(wl string, seed int64, seconds float64, k int, record string) error {
	values := map[string][]float64{}
	units := map[string]string{}
	var order []string
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		t0 := time.Now()
		rep, err := child(fmt.Sprintf("out/steady-%s-%d.json", wl, i), "-workload", wl,
			"-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds))
		if err != nil {
			return err
		}
		for _, m := range rep.Metrics {
			if _, ok := units[m.Name]; !ok {
				order = append(order, m.Name)
				units[m.Name] = m.Unit
			}
			values[m.Name] = append(values[m.Name], m.Value)
		}
		fmt.Printf("run %d seed %d: %d passes, %d samples, %.1f s wall\n", i, s, rep.Passes, rep.Samples, time.Since(t0).Seconds())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\n### %s, %d runs, seeds %d-%d, %g s each (%s)\n\n", wl, k, seed, seed+int64(k)-1,
		seconds, time.Now().UTC().Format("2006-01-02"))
	b.WriteString("| metric | unit | median | q1 | q3 | spread | min | max |\n|---|---|---|---|---|---|---|---|\n")
	for _, n := range order {
		v := values[n]
		q1, q3, med := quantile(v, 0.25), quantile(v, 0.75), median(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Fprintf(&b, "| %s | %s | %.5g | %.5g | %.5g | %.3f | %.5g | %.5g |\n",
			n, units[n], med, q1, q3, ratio(q3-q1, med), lo, hi)
	}
	fmt.Print(b.String())
	if record == "" {
		return nil
	}
	f, err := os.OpenFile(record, os.O_APPEND|os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(b.String()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeLedger runs every workload traced (alternating untraced and traced
// passes of the same op list) and writes, per workload and layer, the
// calls, self ms per op and share of op time, plus the tracing overhead.
func writeLedger(path string, seed int64, seconds float64) error {
	var b strings.Builder
	b.WriteString("# Layer-attribution ledger\n\n")
	b.WriteString("Generated by `go run . -ledger LEDGER.md` (see README.md). Each table comes from one\n")
	b.WriteString("traced run: untraced and traced passes of the identical op list alternate; the\n")
	b.WriteString("rows are self times from the traced passes (span duration minus child spans),\n")
	b.WriteString("and the overhead compares the two kinds of pass. A negative overhead means the\n")
	b.WriteString("tracing cost is below the pass-to-pass noise.\n")
	for _, wl := range []string{"synth", "simulate", "serve"} {
		rep, err := child("out/ledger-"+wl+".json", "-workload", wl, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", "1")
		if err != nil {
			return err
		}
		m := rep.Meta
		byName := map[string]metric{}
		for _, mt := range rep.Metrics {
			byName[mt.Name] = mt
		}
		fmt.Fprintf(&b, "\n## %s\n\n", wl)
		fmt.Fprintf(&b, "seed %d, %d traced ops of %d per pass, %d passes; gomaxprocs %d, nproc %d, %s, commit %s.\n",
			m.Seed, rep.TracedOps, len(rep.OpKeys), rep.Passes, m.GOMAXPROCS, m.NumCPU, m.Go, m.Commit)
		fmt.Fprintf(&b, "Tracing overhead: %+.1f%% of untraced op time.\n\n", 100*byName["trace.overhead_share"].Value)
		b.WriteString("| layer | calls | self ms/op | share of op time |\n|---|---|---|---|\n")
		rows := append([]layerRow(nil), rep.Rows...)
		sort.Slice(rows, func(a, c int) bool { return rows[a].SelfMS > rows[c].SelfMS })
		for _, r := range rows {
			fmt.Fprintf(&b, "| %s | %d | %.4f | %.1f%% |\n", r.Layer, r.Calls,
				ratio(r.SelfMS, float64(rep.TracedOps)), 100*ratio(r.SelfMS, rep.OpMS))
		}
		share := func(layers ...string) float64 {
			var ms float64
			for _, l := range layers {
				ms += selfMS(rep.Rows, l)
			}
			return 100 * ratio(ms, rep.OpMS)
		}
		switch wl {
		case "synth":
			fmt.Fprintf(&b, "\nThe mapper owns %.1f%% of op time, the front end (parser, sema, compile, lint) %.1f%%.\n",
				share("mapper"), share("parser", "sema", "compile", "lint"))
		case "simulate":
			fmt.Fprintf(&b, "\nExact tier: DC %.1f%%, transient %.1f%% of op time. Fast tier: DC %.1f%%, transient %.1f%%. Behavioral RK4 and assertions: %.1f%%.\n",
				share("mna.exact.dc"), share("mna.exact.tran"), share("mna.fast.dc"), share("mna.fast.tran"), share("sim", "assertlang"))
		case "serve":
			fmt.Fprintf(&b, "\nPipeline compute %.1f%% of request time, server %.1f%%, behavioral RK4 runs with their replies %.1f%%.\n",
				share("parser", "sema", "compile", "lint", "mapper", "netlist", "mna.exact.tran"), share("server"), share("sim"))
		}
		if a, ok := byName["absint.ms_per_op"]; ok && a.Value > 0 {
			fmt.Fprintf(&b, "\nabsint runs inside lint.CheckSource; replayed outside the op on the same module it takes %.4f ms/op, part of lint's self time above.\n", a.Value)
		}
	}
	return writeFile(path, []byte(b.String()))
}
