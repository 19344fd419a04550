// Warm-cache contract of the corpus harness: rebuilding the unchanged
// corpus — in process or across processes via a shared cache directory —
// skips all front-end and search work and reproduces Table 1 byte for byte.
package corpus_test

import (
	"context"
	"testing"

	"vase/internal/corpus"
	"vase/internal/mapper"
	"vase/internal/pipeline"
)

func buildTable(t *testing.T, p *pipeline.Pipeline) ([]*corpus.Build, string) {
	t.Helper()
	builds, err := corpus.BuildAll(context.Background(), p, mapper.DefaultOptions())
	if err != nil {
		t.Fatalf("BuildAll: %v", err)
	}
	return builds, corpus.Table1(builds)
}

// assertAllCached fails unless every stage that can be memoized was served
// from cache on the warm pass (no compile or map misses).
func assertAllCached(t *testing.T, builds []*corpus.Build, coldStats, warmStats pipeline.Stats) {
	t.Helper()
	for _, b := range builds {
		if !b.Cached {
			t.Errorf("warm build of %s was not served from cache", b.App.Key)
		}
	}
	apps := uint64(len(corpus.Applications()))
	for _, st := range []pipeline.Stage{pipeline.StageCompile, pipeline.StageMap} {
		cold, warm := coldStats.Stage(st), warmStats.Stage(st)
		if warm.Misses != cold.Misses {
			t.Errorf("%s stage recomputed on the warm pass: %d misses, then %d", st, cold.Misses, warm.Misses)
		}
		if warm.Cached() != cold.Cached()+apps {
			t.Errorf("%s stage served %d cached, want %d", st, warm.Cached()-cold.Cached(), apps)
		}
	}
}

func TestWarmCorpusBuildInProcess(t *testing.T) {
	p, err := pipeline.New(pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, cold := buildTable(t, p)
	coldStats := p.Stats()
	builds, warm := buildTable(t, p)
	if cold != warm {
		t.Errorf("warm Table 1 differs:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	assertAllCached(t, builds, coldStats, p.Stats())
}

func TestWarmCorpusBuildAcrossPipelines(t *testing.T) {
	dir := t.TempDir()
	a, err := pipeline.New(pipeline.Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, cold := buildTable(t, a)

	// A fresh pipeline over the same directory models a second process.
	b, err := pipeline.New(pipeline.Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	builds, warm := buildTable(t, b)
	if cold != warm {
		t.Errorf("cross-process Table 1 differs:\n--- first ---\n%s--- second ---\n%s", cold, warm)
	}
	assertAllCached(t, builds, pipeline.Stats{}, b.Stats())
	for _, st := range []pipeline.Stage{pipeline.StageCompile, pipeline.StageMap} {
		if s := b.Stats().Stage(st); s.DiskHits != uint64(len(builds)) {
			t.Errorf("%s stage: %d disk hits, want %d", st, s.DiskHits, len(builds))
		}
	}
}
