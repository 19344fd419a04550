package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// op is one unit of timed work: one design through the synth contract,
// one (design, engine) pair, or one HTTP request.
type op struct {
	kind string // root span name and latency class
	key  string // golden key
	run  func(t *tracer, id int) opOut
}

type opOut struct {
	mismatch string     // why the op failed against its golden ("" = ok)
	design   *designObs // architecture the op synthesized, if any
	// replay, run on traced passes only and outside the op's span, times
	// a layer the op reaches only inside another layer's call.
	replay func(t *tracer)
}

// pass is one set-up's worth of work: the ops to time, in run order, and
// what to release after them.
type pass struct {
	ops         []op
	synthesized []designObs // architectures built during set-up
	teardown    func()
}

// workload builds a fresh system for each pass. Its set-up is timed as
// set-up, never as op latency.
type workload struct {
	name  string
	setup func(seed int64) (*pass, error)
	// layers turns the traced run's spans and counts into ledger rows
	// (nil: the spans are the rows).
	layers func(r *runResult) []layerRow
	// collectEachOp starts every op from a collected heap. Synth and
	// simulate ops allocate 4-50 MB each; without it, garbage an earlier
	// op left is collected on a later op's time, so latencies depend on the
	// seed's order (three runs of simulate spread 20-32 ms in p50 without
	// it, 19.7-21.1 ms with it). Serve's requests allocate under 1 MB and
	// take a fraction of a millisecond on hits, which a forced collection
	// just before would slow by evicting the caches; a server collects
	// other requests' garbage in steady state anyway. Every pass starts
	// from a collected heap either way.
	collectEachOp bool
}

// shuffled returns ops in the order the seed fixes: the same seed runs the
// same list in the same order in every pass and every run.
func shuffled(ops []op, seed int64) []op {
	out := make([]op, len(ops))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(ops)) {
		out[i] = ops[j]
	}
	return out
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
}

// maxWall stops a run from starting passes once it has used this much wall
// time, so it ends well inside its 180 s limit on a slow host.
const maxWall = 150 * time.Second

type runResult struct {
	Workload string
	Seed     int64
	Trace    bool
	Passes   int
	OpKeys   []string // first pass, in run order
	// TracedKeys lists the first traced pass's ops, in run order.
	TracedKeys []string
	Lat        []float64 // wall ms per untraced op
	LatKind    map[string][]float64
	PassRate   []float64 // ops per second of op time, per untraced pass
	SetupWall  []float64 // wall seconds of each set-up
	// The same three on the process's CPU clock: CPU ms per untraced op,
	// ops per CPU second per untraced pass, CPU seconds per set-up.
	CPU       []float64
	CPURate   []float64
	SetupCPU  []float64
	Timed     float64 // seconds of op time
	Attempted int
	Failed    int
	Failures  []string
	OpAmps    []float64
	AreaUm2   []float64
	AllocMB   float64   // allocated during untraced ops
	GCCycles  float64   // collections that ran during untraced ops
	PeakRSSMB []float64 // resident-set high-water mark of each untraced pass

	// Traced passes: their op latencies (for the tracing overhead), spans,
	// counts and the ledger rows derived from them.
	TracedLat []float64
	spans     []span
	counts    map[string]float64
	rows      []layerRow
	opMS      float64
}

// runWorkload times whole passes of the workload's op list until the ops'
// time adds up to cfg.seconds. A traced run alternates untraced and traced
// passes of the identical op list: per-layer numbers come from the traced
// passes and the tracing overhead is the difference between the two kinds.
func runWorkload(w *workload, cfg config) (*runResult, error) {
	t := newTracer(false)
	r := &runResult{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace,
		LatKind: map[string][]float64{}}
	start := time.Now()
	rt := [2]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	minPasses := cfg.scale.minPasses[w.name]
	if cfg.trace && minPasses < 2 {
		minPasses = 2
	}
	for p := 0; ; p++ {
		traced := cfg.trace && p%2 == 1
		t.on = traced
		// Set-up starts from a collected heap too: otherwise it collects
		// the garbage of the pass's last op, which the seed picks.
		runtime.GC()
		s0, sc0 := time.Now(), cpuNow()
		ps, err := w.setup(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		r.SetupWall = append(r.SetupWall, time.Since(s0).Seconds())
		r.SetupCPU = append(r.SetupCPU, (cpuNow() - sc0).Seconds())
		if p == 0 {
			for _, d := range ps.synthesized {
				r.OpAmps = append(r.OpAmps, float64(d.OpAmps))
				r.AreaUm2 = append(r.AreaUm2, d.AreaUm2)
			}
		}
		var passMS, passCPU float64
		runtime.GC()
		resetPeakRSS()
		for i, o := range ps.ops {
			if w.collectEachOp {
				runtime.GC()
			}
			metrics.Read(rt[:])
			alloc0, gc0 := rt[0].Value.Uint64(), rt[1].Value.Uint64()
			id := p*len(ps.ops) + i
			h := t.begin("op."+o.kind, id)
			o0, c0 := time.Now(), cpuNow()
			out := o.run(t, id)
			ms := float64(time.Since(o0).Nanoseconds()) / 1e6
			cpu := float64((cpuNow() - c0).Nanoseconds()) / 1e6
			t.end(h)
			metrics.Read(rt[:])
			passMS += ms
			if !traced {
				r.AllocMB += float64(rt[0].Value.Uint64()-alloc0) / (1 << 20)
				r.GCCycles += float64(rt[1].Value.Uint64() - gc0)
			}
			if traced && out.replay != nil {
				out.replay(t)
			}
			if traced {
				r.TracedLat = append(r.TracedLat, ms)
			} else {
				r.Lat = append(r.Lat, ms)
				r.LatKind[o.kind] = append(r.LatKind[o.kind], ms)
				r.CPU = append(r.CPU, cpu)
				passCPU += cpu
			}
			r.Attempted++
			if out.mismatch != "" {
				r.Failed++
				if len(r.Failures) < 5 {
					r.Failures = append(r.Failures, o.kind+" "+o.key+": "+out.mismatch)
				}
			}
			if p == 1 && traced {
				r.TracedKeys = append(r.TracedKeys, o.kind+" "+o.key)
			}
			if p == 0 {
				r.OpKeys = append(r.OpKeys, o.kind+" "+o.key)
				if out.design != nil {
					r.OpAmps = append(r.OpAmps, float64(out.design.OpAmps))
					r.AreaUm2 = append(r.AreaUm2, out.design.AreaUm2)
				}
			}
		}
		peak := peakRSSMB()
		ps.teardown()
		r.Passes++
		r.Timed += passMS / 1e3
		if !traced {
			r.PassRate = append(r.PassRate, float64(len(ps.ops))/(passMS/1e3))
			r.CPURate = append(r.CPURate, float64(len(ps.ops))/(passCPU/1e3))
			r.PeakRSSMB = append(r.PeakRSSMB, peak)
		}
		if r.Passes >= minPasses && (r.Timed >= cfg.seconds || time.Since(start) >= maxWall) {
			break
		}
	}
	if cfg.trace {
		r.spans, r.counts = t.spans, t.counts
		r.rows, r.opMS = selfTimes(t.spans)
		if w.layers != nil {
			r.rows = w.layers(r)
		}
	}
	return r, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// cpuNow reads the process's CPU clock: the CPU time all of its threads
// have used, which the timed figures BENCHMARK.json lists are taken on. On
// a shared host, time the process spends waiting for a CPU (run-queue delay,
// or the hypervisor running another guest) inflates wall time but not this
// clock. It includes the collector's and, on serve, the server's goroutines,
// so it is the whole CPU cost of an op.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so each
// pass reports its own peak: one pass's spike, which depends on when the
// collector ran, then moves one sample of the median instead of the run's
// maximum. Where the kernel offers no reset, peakRSSMB reports the
// process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort; see peakRSSMB
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB, falling
// back to getrusage's process-lifetime peak.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
