package pipeline

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"vase/internal/mapper"
)

// mixerVariant derives a distinct-but-valid spec from mixerSrc by changing
// one coefficient, giving each key its own deterministic netlist.
func mixerVariant(i int) (name, text string) {
	return fmt.Sprintf("mixer%d.vhd", i),
		fmt.Sprintf(`
entity mixer%d is
  port (
    quantity a : in real is voltage;
    quantity b : in real is voltage;
    quantity y : out real is voltage
  );
end entity;
architecture beh of mixer%d is
begin
  y == %d.0 * a + 2.0 * b;
end architecture;
`, i, i, 2+i)
}

// TestConcurrentClientsOnePipeline is the concurrent-clients stress test of
// the shared-pipeline contract: N goroutines hammer one Pipeline with a mix
// of identical and distinct synthesis keys. Every distinct key must be
// computed exactly once (single-flight dedup plus the memo caches), every
// response must be byte-identical to the others of its key, and the whole
// run must be clean under -race.
func TestConcurrentClientsOnePipeline(t *testing.T) {
	const (
		distinct = 4  // distinct specs (one map key each)
		clients  = 32 // concurrent clients, 8 per spec
		rounds   = 3  // repeat requests per client (warm hits)
	)
	p := newPipe(t, Options{})
	opts := mapper.DefaultOptions()

	dumps := make([][]string, distinct)
	for i := range dumps {
		dumps[i] = make([]string, 0, clients/distinct*rounds)
	}
	var mu sync.Mutex

	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		spec := c % distinct
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			name, text := mixerVariant(spec)
			for r := 0; r < rounds; r++ {
				res, _, _, err := p.Synthesize(context.Background(), name, text, opts)
				if err != nil {
					t.Errorf("spec %d: %v", spec, err)
					return
				}
				mu.Lock()
				dumps[spec] = append(dumps[spec], res.Netlist.Dump())
				mu.Unlock()
			}
		}()
	}
	close(start)
	wg.Wait()

	for i := 0; i < distinct; i++ {
		// The map stage must have run exactly once per key: every other
		// request was a memory hit or joined the in-flight computation.
		// (cached=false covers both the one real compute and shared joins,
		// so assert on the stage counters instead.)
		if got := dumps[i]; len(got) != clients/distinct*rounds {
			t.Fatalf("spec %d: %d responses, want %d", i, len(got), clients/distinct*rounds)
		}
		for _, d := range dumps[i] {
			if d != dumps[i][0] {
				t.Errorf("spec %d: divergent netlist bytes across concurrent clients", i)
				break
			}
		}
		for j := i + 1; j < distinct; j++ {
			if dumps[i][0] == dumps[j][0] {
				t.Errorf("specs %d and %d returned identical netlists — keys collided", i, j)
			}
		}
	}
	st := p.Stats().Stage(StageMap)
	if st.Misses != distinct {
		t.Errorf("map stage ran %d computations, want exactly %d (one per distinct key); stats %+v",
			st.Misses, distinct, st)
	}
	if st.Errors != 0 || st.Degraded != 0 {
		t.Errorf("stress run recorded errors/degraded: %+v", st)
	}
	total := st.Hits + st.DiskHits + st.Shared + st.Misses
	if want := uint64(clients * rounds); total != want {
		t.Errorf("map stage served %d requests, want %d", total, want)
	}
}

// TestStatsSnapshotUnderLoad hammers Stats() while requests are in flight:
// with the pre-atomic counters this is a data race (caught by -race once
// the counters moved off the pipeline mutex); with atomics the snapshot
// must also stay arithmetically consistent.
func TestStatsSnapshotUnderLoad(t *testing.T) {
	p := newPipe(t, Options{})
	stop := make(chan struct{})
	var snapper sync.WaitGroup
	snapper.Add(1)
	go func() {
		defer snapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := p.Stats().Stage(StageCompile)
			if st.Hits+st.Misses+st.Shared+st.DiskHits < st.Errors {
				t.Error("snapshot tore: error count exceeds total requests")
			}
		}
	}()

	const clients = 16
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		spec := c % 4
		go func() {
			defer wg.Done()
			name, text := mixerVariant(spec)
			for r := 0; r < 8; r++ {
				if _, err := p.Compile(context.Background(), name, text); err != nil {
					t.Errorf("compile: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	snapper.Wait()

	// Final coherence: all requests accounted for, compute time only on
	// misses.
	st := p.Stats().Stage(StageCompile)
	if total := st.Hits + st.DiskHits + st.Shared + st.Misses + st.Errors; total != clients*8 {
		t.Errorf("compile stage accounted %d requests, want %d (%+v)", total, clients*8, st)
	}
	if st.Misses != 4 {
		t.Errorf("compile ran %d times, want 4 distinct keys (%+v)", st.Misses, st)
	}
	if st.Misses > 0 && p.Stats().Latency[StageCompile].Count() != st.Misses {
		t.Errorf("latency histogram holds %d observations, want %d",
			p.Stats().Latency[StageCompile].Count(), st.Misses)
	}
}
