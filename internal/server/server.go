// Package server implements vased, the VASE synthesis service: an HTTP/JSON
// front over one shared internal/pipeline.Pipeline, so every request — from
// any client — goes through the same content-addressed cache and
// single-flight deduplication that the CLIs use.
//
// Endpoints (all v1 requests are POST with a JSON body):
//
//	/v1/parse       front end: VASS -> VHIF (+ Table 1 metrics)
//	/v1/lint        synthesizability linter over VASS or serialized VHIF
//	/v1/project/diagnostics
//	                multi-file check with the error-recovering front end:
//	                every diagnostic across the file set, plus per-unit
//	                cache-reuse counters (incremental re-analysis)
//	/v1/synthesize  full flow: front end + branch-and-bound architecture
//	                generation under a per-request deadline
//	/v1/simulate    behavioral transient simulation; "stream": true switches
//	                the response to Server-Sent Events, one event per sample
//	/metrics        text-format counters: per-stage latency histograms,
//	                hit/shed/degrade counters (GET)
//	/healthz        liveness (GET)
//
// Server-only machinery on top of the pipeline:
//
//   - Admission control: at most MaxConcurrent requests run; up to
//     QueueDepth more wait up to QueueWait for a slot. Beyond that the
//     server sheds load with 429 + Retry-After rather than queueing
//     unboundedly (a saturated queue would miss every deadline anyway).
//   - Deadlines as SLOs: every request runs under a deadline (client-chosen,
//     clamped to MaxDeadline). The anytime synthesis contract turns an
//     expired deadline into the best incumbent netlist with "degraded":
//     true and HTTP 206 — explicit load-shedding, and the pipeline never
//     caches such results.
//
// HTTP statuses follow the CLI exit-code contract (internal/exitcode):
// 200 = exit 0, 400 = exit 2 (bad request), 422 = exit 1 (the work failed),
// 206 = exit 3 (an answer, but not a proven/complete one). 429/503/504 are
// transport-level outcomes with no CLI analogue.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"vase/internal/pipeline"
	"vase/internal/project"
)

// Config configures a Server. The zero value of every field selects a
// sensible default; Pipeline is required.
type Config struct {
	// Pipeline is the shared compilation/synthesis pipeline. Required.
	Pipeline *pipeline.Pipeline
	// MaxConcurrent bounds simultaneously-running requests
	// (0 = runtime.GOMAXPROCS(0)).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a run slot
	// (0 = 4*MaxConcurrent; negative = no queue, shed immediately).
	QueueDepth int
	// QueueWait bounds how long a queued request waits before the server
	// answers 503 (0 = 2s).
	QueueWait time.Duration
	// DefaultDeadline applies to requests that do not choose a deadline
	// (0 = 30s).
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-chosen deadlines (0 = 5m).
	MaxDeadline time.Duration
	// MaxBodyBytes caps request bodies (0 = 4 MiB).
	MaxBodyBytes int64
}

func (c *Config) fillDefaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxConcurrent
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
}

// Server is the vased HTTP handler. Construct with New.
type Server struct {
	cfg  Config
	pipe *pipeline.Pipeline
	proj *project.Project
	adm  *admission
	met  *metrics
	mux  *http.ServeMux
}

// New builds a Server over the given pipeline.
func New(cfg Config) (*Server, error) {
	if cfg.Pipeline == nil {
		return nil, fmt.Errorf("server: Config.Pipeline is required")
	}
	cfg.fillDefaults()
	s := &Server{
		cfg:  cfg,
		pipe: cfg.Pipeline,
		proj: project.New(cfg.Pipeline),
		adm:  newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, cfg.QueueWait),
		met:  newMetrics(),
		mux:  http.NewServeMux(),
	}
	s.mux.HandleFunc("/v1/parse", s.admitted("parse", s.handleParse))
	s.mux.HandleFunc("/v1/lint", s.admitted("lint", s.handleLint))
	s.mux.HandleFunc("/v1/project/diagnostics", s.admitted("project", s.handleProjectDiagnostics))
	s.mux.HandleFunc("/v1/synthesize", s.admitted("synthesize", s.handleSynthesize))
	s.mux.HandleFunc("/v1/simulate", s.admitted("simulate", s.handleSimulate))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// httpError carries an error response: status, message, and an optional
// Retry-After hint for load-shedding statuses.
type httpError struct {
	status     int
	msg        string
	retryAfter int // seconds; 0 = no Retry-After header
	// extra fields are merged into the error JSON (e.g. diagnostics).
	extra map[string]any
}

func errorf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// admitted wraps a handler with method filtering, admission control, and
// per-endpoint accounting. The handler returns nil on success (it has
// written the response) or an *httpError.
func (s *Server) admitted(endpoint string, h func(w http.ResponseWriter, r *http.Request) *httpError) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.fail(w, endpoint, errorf(http.StatusMethodNotAllowed, "%s requires POST", r.URL.Path))
			return
		}
		release, herr := s.adm.admit(r.Context())
		if herr != nil {
			switch herr.status {
			case http.StatusTooManyRequests:
				s.met.shed.Add(1)
			case http.StatusServiceUnavailable:
				s.met.queueTimeout.Add(1)
			}
			s.fail(w, endpoint, herr)
			return
		}
		defer release()
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		if herr := h(w, r); herr != nil {
			s.fail(w, endpoint, herr)
		}
	}
}

// deadline resolves a client-requested timeout (milliseconds, 0 = default)
// against the server's clamp.
func (s *Server) deadline(timeoutMS int) time.Duration {
	d := s.cfg.DefaultDeadline
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

func (s *Server) fail(w http.ResponseWriter, endpoint string, herr *httpError) {
	if herr.status == http.StatusGatewayTimeout {
		s.met.deadline.Add(1)
	}
	if herr.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", herr.retryAfter))
	}
	body := map[string]any{"error": herr.msg}
	for k, v := range herr.extra {
		body[k] = v
	}
	s.reply(w, endpoint, herr.status, body)
}

// reply writes a JSON response and records the (endpoint, status) counter.
// The body is marshalled before the status line goes out, so a value JSON
// cannot encode answers 500 with an error body instead of a 200 with none,
// and the whole body is written once under its Content-Length.
//
// A simulate trace is written compact: it is the only body that grows
// with the request's window (samples × signals), and indenting puts every
// sample on its own line. Every other body keeps the indented form clients
// and scripts already read.
func (s *Server) reply(w http.ResponseWriter, endpoint string, status int, body any) {
	var data []byte
	var err error
	if _, trace := body.(simulateResponse); trace {
		data, err = json.Marshal(body)
	} else {
		data, err = json.MarshalIndent(body, "", "  ")
	}
	if err != nil {
		s.fail(w, endpoint, errorf(http.StatusInternalServerError, "encode reply: %v", err))
		return
	}
	data = append(data, '\n')
	s.met.request(endpoint, status)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(status)
	_, _ = w.Write(data) // a write error means the client hung up; nothing is left to tell it
}

// readJSON decodes a request body strictly: unknown fields are a client
// error, mirroring how the CLIs reject unknown flags (exit 2 -> 400).
func readJSON(r *http.Request, dst any) *httpError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return errorf(http.StatusBadRequest, "request body: %v", err)
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}
