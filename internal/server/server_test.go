package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vase/internal/pipeline"
)

const mixerSrc = `
entity mixer is
  port (
    quantity a : in real is voltage;
    quantity b : in real is voltage;
    quantity y : out real is voltage
  );
end entity;
architecture beh of mixer is
begin
  y == 3.0 * a + 2.0 * b;
end architecture;
`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Pipeline == nil {
		p, err := pipeline.New(pipeline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Pipeline = p
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// post sends a JSON body and decodes the JSON response.
func post(t *testing.T, s *Server, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: invalid JSON response %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec, out
}

func TestParseEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, out := post(t, s, "/v1/parse", map[string]any{"name": "mixer.vhd", "source": mixerSrc})
	if rec.Code != http.StatusOK {
		t.Fatalf("parse: status %d, body %s", rec.Code, rec.Body)
	}
	if out["entity"] != "mixer" {
		t.Errorf("entity = %v, want mixer", out["entity"])
	}
	if v, _ := out["vhif"].(string); !strings.Contains(v, "module mixer") {
		t.Errorf("vhif text missing module header: %.60q", v)
	}
	if out["cached"] != false {
		t.Errorf("first parse reported cached=%v", out["cached"])
	}
	// Second request hits the shared cache.
	rec, out = post(t, s, "/v1/parse", map[string]any{"name": "mixer.vhd", "source": mixerSrc})
	if rec.Code != http.StatusOK || out["cached"] != true {
		t.Errorf("second parse: status %d cached=%v, want 200 cached=true", rec.Code, out["cached"])
	}
}

func TestParseBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	// Unknown field -> 400 (the HTTP analogue of exit 2).
	rec, _ := post(t, s, "/v1/parse", map[string]any{"source": mixerSrc, "bogus": 1})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", rec.Code)
	}
	// Missing source -> 400.
	rec, _ = post(t, s, "/v1/parse", map[string]any{"name": "x.vhd"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing source: status %d, want 400", rec.Code)
	}
	// Compile errors -> 422 (exit 1) with structured diagnostics.
	rec, out := post(t, s, "/v1/parse", map[string]any{"source": "entity broken is end entity;"})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("broken source: status %d, want 422 (body %s)", rec.Code, rec.Body)
	}
	if _, hasErr := out["error"]; !hasErr {
		t.Error("error body missing the error message")
	}
	// GET -> 405.
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/v1/parse", nil))
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET parse: status %d, want 405", rec2.Code)
	}
}

func TestLintEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, out := post(t, s, "/v1/lint", map[string]any{"name": "mixer.vhd", "source": mixerSrc})
	if rec.Code != http.StatusOK {
		t.Fatalf("lint: status %d, body %s", rec.Code, rec.Body)
	}
	if _, ok := out["findings"]; !ok {
		t.Error("lint response missing findings")
	}
	// Requiring both or neither input is a 400.
	rec, _ = post(t, s, "/v1/lint", map[string]any{"name": "x"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("lint without source: status %d, want 400", rec.Code)
	}
}

func TestSynthesizeEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, out := post(t, s, "/v1/synthesize", map[string]any{"name": "mixer.vhd", "source": mixerSrc})
	if rec.Code != http.StatusOK {
		t.Fatalf("synthesize: status %d, body %s", rec.Code, rec.Body)
	}
	if nl, _ := out["netlist"].(string); !strings.Contains(nl, "netlist mixer") {
		t.Errorf("netlist dump missing header: %.60q", nl)
	}
	if out["degraded"] != false {
		t.Errorf("unconstrained synthesis reported degraded=%v", out["degraded"])
	}
	if ops, _ := out["op_amps"].(float64); ops < 1 {
		t.Errorf("op_amps = %v, want >= 1", out["op_amps"])
	}
}

// TestFrontStatsObject pins the Table 1 front-end metrics object that
// /v1/parse and /v1/synthesize return under "stats": field names, order
// and values, byte for byte once compacted.
func TestFrontStatsObject(t *testing.T) {
	s := newTestServer(t, Config{})
	const want = `{"continuous_lines":1,"quantities":3,"event_lines":0,"signals":0}`
	for _, path := range []string{"/v1/parse", "/v1/synthesize"} {
		rec, _ := post(t, s, path, map[string]any{"name": "mixer.vhd", "source": mixerSrc})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", path, rec.Code, rec.Body)
		}
		var body map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		var stats bytes.Buffer
		if err := json.Compact(&stats, body["stats"]); err != nil {
			t.Fatalf("%s: stats %q: %v", path, body["stats"], err)
		}
		if stats.String() != want {
			t.Errorf("%s: stats = %s, want %s", path, stats.String(), want)
		}
	}
}

// TestSynthesizeConcurrentSharedCache is the tentpole acceptance test:
// concurrent synthesize requests with identical and distinct keys through
// one server compute each distinct key exactly once and return
// byte-identical netlists for identical keys.
func TestSynthesizeConcurrentSharedCache(t *testing.T) {
	p, err := pipeline.New(pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Pipeline: p, MaxConcurrent: 8, QueueDepth: 64, QueueWait: 10 * time.Second})

	const clientsPerSpec = 8
	specs := []string{mixerSrc, strings.Replace(mixerSrc, "3.0", "4.0", 1)}
	netlists := make([][]string, len(specs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for si, src := range specs {
		for c := 0; c < clientsPerSpec; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec, out := post(t, s, "/v1/synthesize", map[string]any{"name": "mixer.vhd", "source": src})
				if rec.Code != http.StatusOK {
					t.Errorf("spec %d: status %d, body %s", si, rec.Code, rec.Body)
					return
				}
				mu.Lock()
				netlists[si] = append(netlists[si], out["netlist"].(string))
				mu.Unlock()
			}()
		}
	}
	wg.Wait()

	for si := range specs {
		if len(netlists[si]) != clientsPerSpec {
			t.Fatalf("spec %d: %d successful responses, want %d", si, len(netlists[si]), clientsPerSpec)
		}
		for _, nl := range netlists[si] {
			if nl != netlists[si][0] {
				t.Errorf("spec %d: concurrent clients saw different netlist bytes", si)
				break
			}
		}
	}
	if netlists[0][0] == netlists[1][0] {
		t.Error("distinct sources returned identical netlists")
	}
	st := p.Stats().Stage(pipeline.StageMap)
	if st.Misses != uint64(len(specs)) {
		t.Errorf("map stage computed %d times for %d distinct keys (stats %+v)", st.Misses, len(specs), st)
	}
}

// TestSaturationSheds verifies the 429 + Retry-After contract: with every
// run slot held and no queue, a request is refused immediately.
func TestSaturationSheds(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	// Occupy the only run slot.
	release, herr := s.adm.admit(context.Background())
	if herr != nil {
		t.Fatalf("priming admit failed: %+v", herr)
	}
	defer release()

	rec, out := post(t, s, "/v1/parse", map[string]any{"source": mixerSrc})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if _, ok := out["error"]; !ok {
		t.Error("429 body missing error message")
	}
}

// TestQueueTimeout verifies the bounded-queue path: a request that queues
// longer than QueueWait gets 503 + Retry-After.
func TestQueueTimeout(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1, QueueWait: 30 * time.Millisecond})
	release, herr := s.adm.admit(context.Background())
	if herr != nil {
		t.Fatalf("priming admit failed: %+v", herr)
	}
	defer release()

	rec, _ := post(t, s, "/v1/parse", map[string]any{"source": mixerSrc})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued past deadline: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
}

// TestDegradedNeverCached drives the anytime contract end to end: a
// truncated search answers 206 with degraded=true, and the result is NOT
// served from cache to the next caller — a full-budget request recomputes.
func TestDegradedNeverCached(t *testing.T) {
	p, err := pipeline.New(pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Pipeline: p})

	rec, out := post(t, s, "/v1/synthesize", map[string]any{
		"name": "mixer.vhd", "source": mixerSrc, "max_nodes": 1,
	})
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("truncated search: status %d, want 206 (body %s)", rec.Code, rec.Body)
	}
	if out["degraded"] != true {
		t.Errorf("truncated search reported degraded=%v", out["degraded"])
	}
	if nl, _ := out["netlist"].(string); nl == "" {
		t.Error("degraded response carries no incumbent netlist")
	}

	// The degraded answer must not have been cached: the full request runs
	// the search itself (cached=false) and reports a clean optimum.
	rec, out = post(t, s, "/v1/synthesize", map[string]any{"name": "mixer.vhd", "source": mixerSrc})
	if rec.Code != http.StatusOK {
		t.Fatalf("full search after degraded: status %d", rec.Code)
	}
	if out["cached"] != false {
		t.Error("full search was served the degraded cached result")
	}
	if out["degraded"] != false {
		t.Error("full search still degraded")
	}
	st := p.Stats().Stage(pipeline.StageMap)
	if st.Degraded != 1 {
		t.Errorf("map stage recorded %d degraded computations, want 1", st.Degraded)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, out := post(t, s, "/v1/simulate", map[string]any{
		"name":   "mixer.vhd",
		"source": mixerSrc,
		"inputs": map[string]string{"a": "dc:1", "b": "dc:2"},
		"tstop":  1e-4,
		"tstep":  1e-6,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate: status %d, body %s", rec.Code, rec.Body)
	}
	times, _ := out["time"].([]any)
	if len(times) == 0 {
		t.Fatal("simulate returned no samples")
	}
	signals, _ := out["signals"].(map[string]any)
	ys, _ := signals["y"].([]any)
	if len(ys) != len(times) {
		t.Fatalf("y has %d samples for %d times", len(ys), len(times))
	}
	// y == 3*1 + 2*2 = 7 at steady state.
	if got := ys[len(ys)-1].(float64); got < 6.9 || got > 7.1 {
		t.Errorf("final y = %g, want ~7", got)
	}
	// A bad waveform spec is a 400.
	rec, _ = post(t, s, "/v1/simulate", map[string]any{
		"source": mixerSrc, "inputs": map[string]string{"a": "square:1"},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad waveform: status %d, want 400", rec.Code)
	}
}

func TestSimulateSSE(t *testing.T) {
	s := newTestServer(t, Config{})
	body, _ := json.Marshal(map[string]any{
		"name":   "mixer.vhd",
		"source": mixerSrc,
		"inputs": map[string]string{"a": "dc:1", "b": "dc:2"},
		"tstop":  1e-5,
		"tstep":  1e-6,
		"stream": true,
		"every":  2,
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("SSE simulate: status %d, body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{"event: header", `"signals":["a","b","y"]`, "event: sample", `"t":`, "event: done", `"truncated":false`} {
		if !strings.Contains(out, want) {
			t.Errorf("SSE stream missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "event: sample"); n == 0 {
		t.Error("SSE stream carried no samples")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	// Generate one of each outcome: a success and a shed.
	rec, _ := post(t, s, "/v1/parse", map[string]any{"source": mixerSrc})
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup parse failed: %d", rec.Code)
	}
	release, _ := s.adm.admit(context.Background())
	recShed, _ := post(t, s, "/v1/parse", map[string]any{"source": mixerSrc})
	release()
	if recShed.Code != http.StatusTooManyRequests {
		t.Fatalf("shed request: %d, want 429", recShed.Code)
	}

	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if mrec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", mrec.Code)
	}
	out := mrec.Body.String()
	for _, want := range []string{
		"vased_shed_total 1",
		`vased_requests_total{endpoint="parse",code="200"} 1`,
		`vased_requests_total{endpoint="parse",code="429"} 1`,
		`vase_stage_requests_total{stage="compile",kind="miss"} 1`,
		`vase_stage_compute_seconds_bucket{stage="compile",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestAdmissionCancelledWhileQueued(t *testing.T) {
	a := newAdmission(1, 1, time.Minute)
	release, herr := a.admit(context.Background())
	if herr != nil {
		t.Fatal(herr)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel once the second request is queued.
		for a.depth() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, herr = a.admit(ctx)
	if herr == nil || herr.status != http.StatusGatewayTimeout {
		t.Fatalf("cancelled while queued: %+v, want 504", herr)
	}
	if a.depth() != 0 {
		t.Errorf("queue depth %d after departure, want 0", a.depth())
	}
}

// TestWorkersFieldIgnored checks the synthesize request still accepts the
// "workers" field that existing clients send, and that it changes nothing:
// the search is sequential.
func TestWorkersFieldIgnored(t *testing.T) {
	synthesize := func(body map[string]any) string {
		t.Helper()
		rec, out := post(t, newTestServer(t, Config{}), "/v1/synthesize", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("synthesize %v: status %d, body %s", body["workers"], rec.Code, rec.Body)
		}
		nl, _ := out["netlist"].(string)
		return nl
	}
	want := synthesize(map[string]any{"name": "mixer.vhd", "source": mixerSrc})
	if got := synthesize(map[string]any{"name": "mixer.vhd", "source": mixerSrc, "workers": 8}); got != want {
		t.Errorf("netlist with \"workers\": 8 differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestSynthesizeRejectsNegativeMaxNodes checks a negative node budget is a
// bad request, not a search cut off after a few nodes and answered as
// degraded.
func TestSynthesizeRejectsNegativeMaxNodes(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, _ := post(t, s, "/v1/synthesize", map[string]any{"name": "mixer.vhd", "source": mixerSrc, "max_nodes": -5})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("max_nodes -5: status %d, want 400; body %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "max_nodes") {
		t.Errorf("400 body does not name the field: %s", rec.Body)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthz: %d %s", rec.Code, rec.Body)
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	s := newTestServer(t, Config{})
	// An already-expired request context: the pipeline reports a context
	// error, which the server maps to 504.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data, _ := json.Marshal(map[string]any{"source": mixerSrc + "-- variant for a cold key\n"})
	req := httptest.NewRequest(http.MethodPost, "/v1/parse", bytes.NewReader(data)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	// Admission sees the dead context while "queueing" only if saturated;
	// otherwise the pipeline compile fails with the context error.
	if rec.Code != http.StatusGatewayTimeout && rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("expired context: status %d, want 504 (or 422 if the front end won the race)", rec.Code)
	}
}

func ExampleConfig() {
	p, _ := pipeline.New(pipeline.Options{})
	s, _ := New(Config{Pipeline: p, MaxConcurrent: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, _ := http.Get(ts.URL + "/healthz")
	fmt.Println(resp.StatusCode)
	// Output: 200
}

// TestSimulateCircuitLevel exercises the MNA branch of /v1/simulate: the
// design is synthesized and its op-amp macromodel integrated, in either
// solver tier, with fast-tier results served from the spice stage's memo
// on repeat and stay within the error budget of the exact tier.
func TestSimulateCircuitLevel(t *testing.T) {
	s := newTestServer(t, Config{})
	req := map[string]any{
		"name":   "mixer.vhd",
		"source": mixerSrc,
		"inputs": map[string]string{"a": "dc:0.1", "b": "dc:0.2"},
		"tstop":  1e-4,
		"tstep":  1e-6,
		"level":  "circuit",
	}
	rec, out := post(t, s, "/v1/simulate", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("circuit simulate: status %d, body %s", rec.Code, rec.Body)
	}
	signals, _ := out["signals"].(map[string]any)
	ys, _ := signals["y"].([]any)
	if len(ys) == 0 {
		t.Fatalf("no y waveform in %v", out)
	}
	// y = 3*0.1 + 2*0.2 = 0.7 at steady state.
	exact := ys[len(ys)-1].(float64)
	if exact < 0.65 || exact > 0.75 {
		t.Errorf("final y = %g, want ~0.7", exact)
	}
	spiceStats := s.pipe.Stats().Stage(pipeline.StageSpice)
	if spiceStats.Misses != 1 {
		t.Errorf("spice stage counters = %+v, want 1 miss", spiceStats)
	}

	// The fast tier is a different artifact (its own key) but must land
	// within the default budget of the exact result.
	req["solver"] = "fast"
	rec, out = post(t, s, "/v1/simulate", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("fast circuit simulate: status %d, body %s", rec.Code, rec.Body)
	}
	signals, _ = out["signals"].(map[string]any)
	ys, _ = signals["y"].([]any)
	fast := ys[len(ys)-1].(float64)
	if diff := fast - exact; diff < -1e-3 || diff > 1e-3 {
		t.Errorf("fast tier y = %g, exact %g", fast, exact)
	}

	// Repeating the fast request is a spice-stage cache hit.
	rec, _ = post(t, s, "/v1/simulate", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat fast simulate: status %d", rec.Code)
	}
	if st := s.pipe.Stats().Stage(pipeline.StageSpice); st.Hits == 0 {
		t.Errorf("repeat request did not hit the spice memo: %+v", st)
	}
}

// TestSimulateCircuitExtremeWindow pins the circuit-level window guard: a
// step count past the int range and a representable but enormous one once
// crashed the whole process inside the spice stage. Both must now answer
// within their deadline, with a 4xx or a 206 truncated trace, and leave
// the server healthy.
func TestSimulateCircuitExtremeWindow(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, w := range []struct{ tstop, tstep float64 }{{1e30, 1e-9}, {1, 1e-12}} {
		start := time.Now()
		rec, _ := post(t, s, "/v1/simulate", map[string]any{
			"name":       "mixer.vhd",
			"source":     mixerSrc,
			"inputs":     map[string]string{"a": "dc:0.1", "b": "dc:0.2"},
			"tstop":      w.tstop,
			"tstep":      w.tstep,
			"every":      1000,
			"level":      "circuit",
			"timeout_ms": 300,
		})
		if rec.Code != http.StatusPartialContent && (rec.Code < 400 || rec.Code > 499) {
			t.Errorf("tstop=%g tstep=%g: status %d, want 4xx or 206 (body %.200s)", w.tstop, w.tstep, rec.Code, rec.Body)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("tstop=%g tstep=%g: answered after %v, past its 300 ms deadline", w.tstop, w.tstep, elapsed)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz after extreme windows: %d %s", rec.Code, rec.Body)
	}
}

// TestSimulateUnsteppableWindow pins the behavioral window guard: a step
// count past the int range is a 422 at both levels, never a 200 with an
// empty trace marked complete.
func TestSimulateUnsteppableWindow(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, level := range []string{"behavioral", "circuit"} {
		rec, out := post(t, s, "/v1/simulate", map[string]any{
			"name":   "mixer.vhd",
			"source": mixerSrc,
			"inputs": map[string]string{"a": "dc:0.1", "b": "dc:0.2"},
			"tstop":  1e300,
			"tstep":  1e-300,
			"level":  level,
		})
		if rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422 (body %.200s)", level, rec.Code, rec.Body)
			continue
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, "not a representable step count") {
			t.Errorf("%s: error %q does not name the step count", level, msg)
		}
	}
}

// TestSimulateSolverValidation pins the request checks of /v1/simulate's
// solver and budget fields: an unknown tier is a 400 listing the valid
// names, solver fields on a behavioral request are rejected rather than
// ignored, and a step budget is either applied or refused — negative at
// either level, or set at the circuit level, where timeout_ms bounds the
// run, is a 400.
func TestSimulateSolverValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, c := range []struct {
		name   string
		fields map[string]any
		status int
		want   []string // substrings of the error message
	}{
		{"unknown solver", map[string]any{"level": "circuit", "solver": "sparse"}, http.StatusBadRequest,
			[]string{"sparse", "reference", "exact", "fast"}},
		{"solver on behavioral", map[string]any{"solver": "fast"}, http.StatusBadRequest, []string{"require level \"circuit\""}},
		{"unknown level", map[string]any{"level": "orbital"}, http.StatusBadRequest, []string{"orbital"}},
		{"negative max_steps", map[string]any{"max_steps": -3}, http.StatusBadRequest,
			[]string{"max_steps must be >= 0 (0 = unlimited), got -3"}},
		{"negative max_steps on circuit", map[string]any{"max_steps": -3, "level": "circuit"}, http.StatusBadRequest,
			[]string{"max_steps must be >= 0 (0 = unlimited), got -3"}},
		{"max_steps on circuit", map[string]any{"max_steps": 3, "level": "circuit"}, http.StatusBadRequest,
			[]string{"max_steps", "timeout_ms"}},
		{"max_steps on behavioral", map[string]any{"max_steps": 3}, http.StatusPartialContent, nil},
	} {
		req := map[string]any{
			"source": mixerSrc,
			"inputs": map[string]string{"a": "dc:0", "b": "dc:0"},
			"tstop":  1e-4,
			"tstep":  1e-6,
		}
		for k, v := range c.fields {
			req[k] = v
		}
		rec, out := post(t, s, "/v1/simulate", req)
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (body %.200s)", c.name, rec.Code, c.status, rec.Body)
			continue
		}
		msg, _ := out["error"].(string)
		for _, want := range c.want {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: error %q does not mention %q", c.name, msg, want)
			}
		}
		if c.status == http.StatusPartialContent {
			if times, _ := out["time"].([]any); len(times) != 3 || out["truncated"] != true {
				t.Errorf("%s: %d samples, truncated %v; want 3 and true", c.name, len(times), out["truncated"])
			}
		}
	}
}

// TestSimulateNonFiniteSample pins the non-finite contract: a trace
// holding +Inf answers 422 naming the signal, value and time, never a 200
// with an empty body, and the stream sends the same text as its error
// event and no done.
func TestSimulateNonFiniteSample(t *testing.T) {
	const src = `
entity big is
  port (
    quantity a : in real is voltage;
    quantity b : in real is voltage;
    quantity y : out real is voltage
  );
end entity;
architecture beh of big is
begin
  y == 1.0e300 * a * b;
end architecture;
`
	const want = `simulate: signal "y" is +Inf at t=0: JSON cannot carry non-finite samples`
	s := newTestServer(t, Config{})
	req := map[string]any{
		"name":   "big.vhd",
		"source": src,
		"inputs": map[string]string{"a": "dc:1e300", "b": "dc:1e300"},
		"tstop":  1e-5,
		"tstep":  1e-6,
	}
	rec, out := post(t, s, "/v1/simulate", req)
	if rec.Code != http.StatusUnprocessableEntity || out["error"] != want {
		t.Errorf("reply: status %d, body %q; want 422 with error %q", rec.Code, rec.Body, want)
	}

	req["stream"] = true
	rec, _ = post(t, s, "/v1/simulate", req)
	stream := rec.Body.String()
	errEvent := "event: error\ndata: " + mustMarshal(t, map[string]any{"error": want}) + "\n\n"
	if !strings.HasSuffix(stream, errEvent) || strings.Contains(stream, "event: done") || strings.Contains(stream, "event: sample") {
		t.Errorf("stream:\n%s\nwant no sample, no done, and the error event %q last", stream, errEvent)
	}
}

// TestReplyEncodeError checks a body JSON cannot encode answers 500 with
// an indented error body, never the status it was meant for with no body.
func TestReplyEncodeError(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.reply(rec, "parse", http.StatusOK, map[string]any{"v": math.Inf(1)})
	const want = "{\n  \"error\": \"encode reply: json: unsupported value: +Inf\"\n}\n"
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
		t.Errorf("status %d, body %q; want 500 with %q", rec.Code, rec.Body, want)
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(want)) {
		t.Errorf("Content-Length %q, want %d", got, len(want))
	}
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
