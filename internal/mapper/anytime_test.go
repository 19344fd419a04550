// Anytime contract of the architecture generator, checked corpus-wide: a
// cancelled or deadlined search must return a valid, netlist-checkable
// incumbent tagged Nonoptimal instead of failing, an uncancelled run must
// stay byte-identical to the plain Synthesize path, and repeated truncated
// runs must not leak goroutines.
package mapper_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"vase/internal/corpus"
	"vase/internal/mapper"
)

// checkIncumbent asserts the result is a usable implementation: a non-empty
// netlist that is structurally sound (acyclic component DAG) and estimable.
func checkIncumbent(t *testing.T, key string, res *mapper.Result) {
	t.Helper()
	if res == nil || res.Netlist == nil {
		t.Fatalf("%s: truncated run returned no netlist", key)
	}
	if res.Netlist.OpAmpCount() < 1 {
		t.Errorf("%s: incumbent has no op amps", key)
	}
	if _, err := res.Netlist.Topological(); err != nil {
		t.Errorf("%s: incumbent netlist is not a sound DAG: %v", key, err)
	}
	if res.Report == nil || res.Report.AreaUm2 <= 0 {
		t.Errorf("%s: incumbent has no area estimate", key)
	}
	if res.Netlist.Dump() == "" {
		t.Errorf("%s: incumbent netlist dump is empty", key)
	}
}

// TestCancelledSearchReturnsIncumbent runs every corpus design under an
// already-cancelled context — the hardest deadline there is. The search
// must still hand back a complete implementation, tagged Nonoptimal.
func TestCancelledSearchReturnsIncumbent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, nm := range corpusModules(t) {
		for _, trace := range []bool{false, true} {
			opts := mapper.DefaultOptions()
			opts.Trace = trace
			res, err := mapper.SynthesizeContext(ctx, nm.m, opts)
			if err != nil {
				t.Fatalf("%s (trace=%v): cancelled search failed instead of returning incumbent: %v", nm.key, trace, err)
			}
			if !res.Nonoptimal {
				t.Errorf("%s (trace=%v): cancelled search did not set Nonoptimal", nm.key, trace)
			}
			checkIncumbent(t, nm.key, res)
		}
	}
}

// TestDeadlinedBuildReturnsIncumbent is the acceptance scenario: a
// deadlined receiver Build yields a usable architecture. The context is
// cancelled up front so expiry is certain regardless of machine speed.
func TestDeadlinedBuildReturnsIncumbent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := corpus.BuildApp(ctx, nil, corpus.ByKey("receiver"), mapper.DefaultOptions())
	if err != nil {
		t.Fatalf("deadlined build failed instead of returning incumbent: %v", err)
	}
	if !b.Result.Nonoptimal {
		t.Error("deadlined build did not set Nonoptimal")
	}
	checkIncumbent(t, "receiver", b.Result)
	if b.AreaUm2 <= 0 {
		t.Errorf("deadlined build area = %g, want > 0", b.AreaUm2)
	}
}

// TestNodeBudgetReturnsIncumbent exhausts a tiny MaxNodes budget; the
// greedy fallback must still produce a complete mapping.
func TestNodeBudgetReturnsIncumbent(t *testing.T) {
	for _, nm := range corpusModules(t) {
		opts := mapper.DefaultOptions()
		opts.MaxNodes = 2
		res, err := mapper.SynthesizeContext(context.Background(), nm.m, opts)
		if err != nil {
			t.Fatalf("%s: budget-bound search failed: %v", nm.key, err)
		}
		if !res.Nonoptimal {
			t.Errorf("%s: binding node budget did not set Nonoptimal", nm.key)
		}
		checkIncumbent(t, nm.key, res)
	}
}

// TestUncancelledRunByteIdentical pins the no-degradation guarantee: with a
// background context (or the plain Synthesize entry point) the anytime
// plumbing must be invisible — identical netlist bytes, Nonoptimal unset.
func TestUncancelledRunByteIdentical(t *testing.T) {
	for _, nm := range corpusModules(t) {
		opts := mapper.DefaultOptions()
		plain, err := mapper.Synthesize(nm.m, opts)
		if err != nil {
			t.Fatalf("%s: Synthesize: %v", nm.key, err)
		}
		ctxRes, err := mapper.SynthesizeContext(context.Background(), nm.m, opts)
		if err != nil {
			t.Fatalf("%s: SynthesizeContext: %v", nm.key, err)
		}
		if plain.Nonoptimal || ctxRes.Nonoptimal {
			t.Errorf("%s: unbounded run marked Nonoptimal", nm.key)
		}
		if a, b := plain.Netlist.Dump(), ctxRes.Netlist.Dump(); a != b {
			t.Errorf("%s: background-context netlist differs from plain Synthesize:\n--- plain ---\n%s\n--- context ---\n%s", nm.key, a, b)
		}
	}
}

// TestTruncatedParallelRunsDoNotLeakGoroutines hammers the search with
// deadlines that expire mid-run and checks the goroutine count settles back
// to the baseline: each run arms a context.AfterFunc that must be released
// (the repo vendors no dependencies, so this stands in for goleak).
func TestTruncatedParallelRunsDoNotLeakGoroutines(t *testing.T) {
	mods := corpusModules(t)
	receiver := mods[0].m
	for _, nm := range mods {
		if nm.key == "receiver" {
			receiver = nm.m
		}
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*100*time.Microsecond)
		opts := mapper.DefaultOptions()
		if _, err := mapper.SynthesizeContext(ctx, receiver, opts); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		cancel()
	}
	// AfterFunc goroutines exit once stopped; give the scheduler a moment.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
