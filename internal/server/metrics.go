package server

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"vase/internal/pipeline"
)

// metrics holds the server-side counters; pipeline-side counters (per-stage
// hits/misses and compute-latency histograms) live in pipeline.Stats and
// are rendered alongside them by the /metrics handler.
type metrics struct {
	shed         atomic.Uint64 // 429: queue full
	queueTimeout atomic.Uint64 // 503: queued past QueueWait
	deadline     atomic.Uint64 // 504: request deadline while queued/working
	degraded     atomic.Uint64 // 206: anytime answers under expired deadlines
	inflight     atomic.Int64

	mu       sync.Mutex
	requests map[string]uint64 // "endpoint code" -> count
}

func newMetrics() *metrics {
	return &metrics{requests: make(map[string]uint64)}
}

func (m *metrics) request(endpoint string, status int) {
	m.mu.Lock()
	m.requests[fmt.Sprintf("%s %d", endpoint, status)]++
	m.mu.Unlock()
}

// handleMetrics renders every counter in the text exposition format: one
// `name{labels} value` line per sample, `# HELP`/`# TYPE`-free on purpose
// (the format is for scraping and grepping in CI, not a registry).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "metrics requires GET", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")

	// Server counters.
	fmt.Fprintf(w, "vased_shed_total %d\n", s.met.shed.Load())
	fmt.Fprintf(w, "vased_queue_timeout_total %d\n", s.met.queueTimeout.Load())
	fmt.Fprintf(w, "vased_deadline_total %d\n", s.met.deadline.Load())
	fmt.Fprintf(w, "vased_degraded_total %d\n", s.met.degraded.Load())
	fmt.Fprintf(w, "vased_inflight %d\n", s.met.inflight.Load())
	fmt.Fprintf(w, "vased_queued %d\n", s.adm.depth())

	s.met.mu.Lock()
	keys := make([]string, 0, len(s.met.requests))
	for k := range s.met.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var endpoint string
		var code int
		fmt.Sscanf(k, "%s %d", &endpoint, &code)
		fmt.Fprintf(w, "vased_requests_total{endpoint=%q,code=\"%d\"} %d\n",
			endpoint, code, s.met.requests[k])
	}
	s.met.mu.Unlock()

	// Pipeline counters: shared-cache effectiveness per stage.
	st := s.pipe.Stats()
	for stage := pipeline.Stage(0); stage < pipeline.NumStages; stage++ {
		c := st.Stage(stage)
		name := stage.String()
		for _, kv := range []struct {
			kind  string
			count uint64
		}{
			{"mem_hit", c.Hits},
			{"disk_hit", c.DiskHits},
			{"shared", c.Shared},
			{"miss", c.Misses},
			{"error", c.Errors},
			{"degraded", c.Degraded},
		} {
			fmt.Fprintf(w, "vase_stage_requests_total{stage=%q,kind=%q} %d\n",
				name, kv.kind, kv.count)
		}
		fmt.Fprintf(w, "vase_stage_compute_seconds_sum{stage=%q} %g\n",
			name, c.ComputeTime.Seconds())

		// Compute-latency histogram, cumulative buckets as Prometheus
		// expects: bucket i counts observations <= bound i.
		h := st.Latency[stage]
		bounds := pipeline.HistBounds()
		var cum uint64
		for i, b := range bounds {
			cum += h.Buckets[i]
			fmt.Fprintf(w, "vase_stage_compute_seconds_bucket{stage=%q,le=%q} %d\n",
				name, fmt.Sprintf("%g", b.Seconds()), cum)
		}
		cum += h.Buckets[len(bounds)]
		fmt.Fprintf(w, "vase_stage_compute_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "vase_stage_compute_seconds_count{stage=%q} %d\n", name, h.Count())
	}

	if bytes, files, ok := s.pipe.DiskUsage(); ok {
		fmt.Fprintf(w, "vase_disk_cache_bytes %d\n", bytes)
		fmt.Fprintf(w, "vase_disk_cache_files %d\n", files)
	}
}
