package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"

	"vase/internal/diag"
	"vase/internal/lint"
	"vase/internal/mapper"
	"vase/internal/mna"
	"vase/internal/pipeline"
	"vase/internal/sim"
	"vase/internal/solveropt"
	"vase/internal/wavespec"
)

// ctxError classifies a pipeline error: a context deadline/cancellation
// becomes 504 (the request's SLO expired before an answer existed), a
// diagnostics list becomes 422 with the structured findings attached, and
// anything else is a plain 422.
func ctxError(ctx context.Context, err error) *httpError {
	if ctx.Err() != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
		return errorf(http.StatusGatewayTimeout, "request deadline expired: %v", err)
	}
	var dl diag.List
	if errors.As(err, &dl) {
		herr := errorf(http.StatusUnprocessableEntity, "%v", err)
		if data, jerr := dl.JSON(); jerr == nil {
			herr.extra = map[string]any{"diagnostics": json.RawMessage(data)}
		}
		return herr
	}
	return errorf(http.StatusUnprocessableEntity, "%v", err)
}

// --- /v1/parse -----------------------------------------------------------

type parseRequest struct {
	Name      string `json:"name"`
	Source    string `json:"source"`
	TimeoutMS int    `json:"timeout_ms"`
}

type parseResponse struct {
	Entity string              `json:"entity"`
	VHIF   string              `json:"vhif"`
	Stats  pipeline.FrontStats `json:"stats"`
	Cached bool                `json:"cached"`
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) *httpError {
	var req parseRequest
	if herr := readJSON(r, &req); herr != nil {
		return herr
	}
	if req.Source == "" {
		return errorf(http.StatusBadRequest, "source is required")
	}
	if req.Name == "" {
		req.Name = "input.vhd"
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.TimeoutMS))
	defer cancel()
	cr, err := s.pipe.Compile(ctx, req.Name, req.Source)
	if err != nil {
		// Broken source: the error body carries the structured diagnostics
		// plus what the recovering parser salvaged, not a bare string.
		herr := ctxError(ctx, err)
		s.attachPartialAST(ctx, herr, req.Name, req.Source)
		return herr
	}
	s.reply(w, "parse", http.StatusOK, parseResponse{
		Entity: cr.Name,
		VHIF:   cr.Text,
		Stats:  cr.Stats,
		Cached: cr.Cached,
	})
	return nil
}

// --- /v1/lint ------------------------------------------------------------

type lintRequest struct {
	Name      string   `json:"name"`
	Source    string   `json:"source"`
	VHIF      string   `json:"vhif"` // serialized VHIF instead of VASS source
	Passes    []string `json:"passes"`
	Werror    bool     `json:"werror"`
	TimeoutMS int      `json:"timeout_ms"`
}

type lintResponse struct {
	Findings json.RawMessage `json:"findings"`
	Errors   int             `json:"errors"`
	Warnings int             `json:"warnings"`
	// PartialAST summarizes what the recovering parser salvaged when the
	// source had syntax errors (absent for clean or VHIF input).
	PartialAST *partialASTSummary `json:"partial_ast,omitempty"`
}

func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) *httpError {
	var req lintRequest
	if herr := readJSON(r, &req); herr != nil {
		return herr
	}
	if (req.Source == "") == (req.VHIF == "") {
		return errorf(http.StatusBadRequest, "exactly one of source or vhif is required")
	}
	if req.Name == "" {
		req.Name = "input.vhd"
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.TimeoutMS))
	defer cancel()
	opts := lint.Options{Passes: req.Passes}
	var findings diag.List
	var err error
	if req.VHIF != "" {
		findings, err = s.pipe.LintVHIF(ctx, req.Name, req.VHIF, opts)
	} else {
		findings, err = s.pipe.Lint(ctx, req.Name, req.Source, opts)
	}
	if err != nil {
		herr := ctxError(ctx, err)
		if req.Source != "" {
			s.attachPartialAST(ctx, herr, req.Name, req.Source)
		}
		return herr
	}
	if req.Werror {
		findings = findings.Promote()
	}
	shown := findings.Filter(diag.Warning)
	data, jerr := shown.JSON()
	if jerr != nil {
		return errorf(http.StatusInternalServerError, "encoding findings: %v", jerr)
	}
	// The status mirrors the vaselint exit code: error findings are exit 1,
	// which maps to 422 — the body still carries every finding.
	status := http.StatusOK
	resp := lintResponse{
		Findings: data,
		Errors:   shown.Count(diag.Error),
		Warnings: shown.Count(diag.Warning),
	}
	if shown.HasErrors() {
		status = http.StatusUnprocessableEntity
		if req.Source != "" {
			resp.PartialAST = s.partialAST(ctx, req.Name, req.Source)
		}
	}
	s.reply(w, "lint", status, resp)
	return nil
}

// --- /v1/synthesize ------------------------------------------------------

type synthesizeRequest struct {
	Name      string `json:"name"`
	Source    string `json:"source"`
	Workers   int    `json:"workers"`   // accepted and ignored: the search is sequential
	MaxNodes  int    `json:"max_nodes"` // search node budget (0 = default)
	TimeoutMS int    `json:"timeout_ms"`
}

type searchStatsJSON struct {
	NodesVisited     int   `json:"nodes_visited"`
	CompleteMappings int   `json:"complete_mappings"`
	Pruned           int   `json:"pruned"`
	ElapsedUS        int64 `json:"elapsed_us"`
}

type synthesizeResponse struct {
	Entity   string              `json:"entity"`
	Netlist  string              `json:"netlist"`
	Summary  string              `json:"summary"`
	OpAmps   int                 `json:"op_amps"`
	AreaUm2  float64             `json:"area_um2"`
	PowerMW  float64             `json:"power_mw"`
	Stats    searchStatsJSON     `json:"search"`
	Front    pipeline.FrontStats `json:"stats"`
	Cached   bool                `json:"cached"`
	Degraded bool                `json:"degraded"`
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) *httpError {
	var req synthesizeRequest
	if herr := readJSON(r, &req); herr != nil {
		return herr
	}
	if req.Source == "" {
		return errorf(http.StatusBadRequest, "source is required")
	}
	if req.MaxNodes < 0 {
		return errorf(http.StatusBadRequest, "max_nodes must be >= 0 (0 = default), got %d", req.MaxNodes)
	}
	if req.Name == "" {
		req.Name = "input.vhd"
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.TimeoutMS))
	defer cancel()

	opts := mapper.DefaultOptions()
	opts.MaxNodes = req.MaxNodes

	res, cr, cached, err := s.pipe.Synthesize(ctx, req.Name, req.Source, opts)
	if err != nil {
		return ctxError(ctx, err)
	}
	// An expired deadline surfaces as the anytime contract's best incumbent
	// with Nonoptimal set: report it as explicit degradation (206, never
	// cached by the pipeline) rather than pretending it is the optimum.
	status := http.StatusOK
	if res.Nonoptimal {
		status = http.StatusPartialContent
		s.met.degraded.Add(1)
	}
	s.reply(w, "synthesize", status, synthesizeResponse{
		Entity:  cr.Name,
		Netlist: res.Netlist.Dump(),
		Summary: res.Netlist.Summary(),
		OpAmps:  res.Netlist.OpAmpCount(),
		AreaUm2: res.Report.AreaUm2,
		PowerMW: res.Report.PowerMW,
		Stats: searchStatsJSON{
			NodesVisited:     res.Stats.NodesVisited,
			CompleteMappings: res.Stats.CompleteMappings,
			Pruned:           res.Stats.Pruned,
			ElapsedUS:        res.Stats.Elapsed.Microseconds(),
		},
		Front:    cr.Stats,
		Cached:   cached,
		Degraded: res.Nonoptimal,
	})
	return nil
}

// --- /v1/simulate --------------------------------------------------------

type simulateRequest struct {
	Name     string            `json:"name"`
	Source   string            `json:"source"`
	Inputs   map[string]string `json:"inputs"` // net -> waveform spec (wavespec grammar)
	TStop    float64           `json:"tstop"`
	TStep    float64           `json:"tstep"`
	MaxSteps int               `json:"max_steps"`
	Every    int               `json:"every"`  // stream/return every n-th sample (default 1)
	Stream   bool              `json:"stream"` // SSE instead of one JSON body
	// Level selects the model: "behavioral" (default) integrates the VHIF
	// signal-flow graphs; "circuit" synthesizes the design and runs the
	// MNA op-amp macromodel transient (the paper's SPICE verification).
	Level string `json:"level"`
	// Solver picks the MNA tier for circuit-level runs: "reference",
	// "exact" (default) or "fast" (see internal/solveropt). RelTol/AbsTol
	// set the fast tier's error budget (0 = documented defaults).
	Solver    string  `json:"solver"`
	RelTol    float64 `json:"reltol"`
	AbsTol    float64 `json:"abstol"`
	TimeoutMS int     `json:"timeout_ms"`
}

type simulateResponse struct {
	Time      []float64            `json:"time"`
	Signals   map[string][]float64 `json:"signals"`
	Truncated bool                 `json:"truncated"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) *httpError {
	var req simulateRequest
	if herr := readJSON(r, &req); herr != nil {
		return herr
	}
	if req.Source == "" {
		return errorf(http.StatusBadRequest, "source is required")
	}
	if req.Name == "" {
		req.Name = "input.vhd"
	}
	if req.TStop <= 0 {
		req.TStop = 1e-3
	}
	if req.TStep <= 0 {
		req.TStep = 1e-6
	}
	if req.Every <= 0 {
		req.Every = 1
	}
	inputs, err := wavespec.ParseMap(req.Inputs)
	if err != nil {
		return errorf(http.StatusBadRequest, "%v", err)
	}
	switch req.Level {
	case "", "behavioral", "circuit":
	default:
		return errorf(http.StatusBadRequest, "unknown level %q (valid: behavioral, circuit)", req.Level)
	}
	tier := mna.SolverAuto
	if req.Solver != "" {
		if tier, err = solveropt.Parse(req.Solver); err != nil {
			return errorf(http.StatusBadRequest, "%v", err)
		}
	}
	if req.Level != "circuit" && (req.Solver != "" || req.RelTol != 0 || req.AbsTol != 0) {
		return errorf(http.StatusBadRequest, "solver/reltol/abstol select the MNA tier and require level \"circuit\"")
	}
	if req.MaxSteps < 0 {
		return errorf(http.StatusBadRequest, "max_steps must be >= 0 (0 = unlimited), got %d", req.MaxSteps)
	}
	if req.Level == "circuit" && req.MaxSteps > 0 {
		return errorf(http.StatusBadRequest, "max_steps bounds the behavioral level only; timeout_ms bounds level \"circuit\"")
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.TimeoutMS))
	defer cancel()

	// The front end goes through the shared cache; the behavioral transient
	// run itself is request-specific (inputs and step vary) and is never
	// cached. Circuit-level runs go through the spice stage's
	// content-addressed memo instead — see handleSimulateCircuit.
	cr, cerr := s.pipe.Compile(ctx, req.Name, req.Source)
	if cerr != nil {
		return ctxError(ctx, cerr)
	}
	if req.Level == "circuit" {
		if req.Stream {
			return errorf(http.StatusBadRequest, "streaming is behavioral-level only")
		}
		return s.handleSimulateCircuit(ctx, w, cr, req, tier)
	}
	opts := sim.Options{TStop: req.TStop, TStep: req.TStep, MaxSteps: req.MaxSteps}
	if req.Stream {
		return s.streamSimulation(ctx, w, cr.Module, inputs, req.Every, opts)
	}
	tr, serr := sim.SimulateModuleContext(ctx, cr.Module, inputs, opts)
	if serr != nil {
		return ctxError(ctx, serr)
	}
	resp := simulateResponse{Time: decimate(tr.Time, req.Every), Truncated: tr.Truncated, Signals: map[string][]float64{}}
	for name, samples := range tr.Signals {
		resp.Signals[name] = decimate(samples, req.Every)
	}
	return s.replyTrace(w, resp)
}

// handleSimulateCircuit is the circuit-level branch of /v1/simulate:
// synthesize (through the shared map-stage cache), elaborate the op-amp
// macromodel, and run the MNA transient through the spice stage's memo —
// a repeated request under the same netlist, inputs, window and solver
// tier never runs the solver again. The response carries the port
// waveforms (polarity-corrected), named like the behavioral level's.
func (s *Server) handleSimulateCircuit(ctx context.Context, w http.ResponseWriter, cr *pipeline.CompileResult, req simulateRequest, tier mna.SolverMode) *httpError {
	res, _, err := s.pipe.SynthesizeText(ctx, cr.Module, cr.Text, mapper.DefaultOptions())
	if err != nil {
		return ctxError(ctx, err)
	}
	sr, err := s.pipe.Spice(ctx, res.Netlist, req.Inputs, req.TStop, req.TStep, pipeline.SpiceOptions{
		Solver: tier,
		Budget: mna.ErrorBudget{RelTol: req.RelTol, AbsTol: req.AbsTol},
	})
	if err != nil {
		return ctxError(ctx, err)
	}
	tr := sr.Tran
	resp := simulateResponse{Time: decimate(tr.Time, req.Every), Truncated: tr.Truncated, Signals: map[string][]float64{}}
	for _, p := range cr.Module.Ports {
		if samples := sr.Elab.V(tr, p.Name); samples != nil {
			resp.Signals[p.Name] = decimate(samples, req.Every)
		}
	}
	return s.replyTrace(w, resp)
}

// replyTrace answers a simulate request at either level. A sample JSON
// cannot carry is a 422 naming it; a truncated trace is a partial answer,
// like a truncated search, so it says so in the status (206), not just
// the body.
func (s *Server) replyTrace(w http.ResponseWriter, resp simulateResponse) *httpError {
	names := make([]string, 0, len(resp.Signals))
	for name := range resp.Signals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for i, v := range resp.Signals[name] {
			if err := finiteSample(name, v, resp.Time[i]); err != nil {
				return errorf(http.StatusUnprocessableEntity, "%v", err)
			}
		}
	}
	status := http.StatusOK
	if resp.Truncated {
		status = http.StatusPartialContent
		s.met.degraded.Add(1)
	}
	s.reply(w, "simulate", status, resp)
	return nil
}

// finiteSample reports a sample value JSON cannot carry: NaN or ±Inf.
func finiteSample(name string, v, t float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("simulate: signal %q is %g at t=%g: JSON cannot carry non-finite samples", name, v, t)
	}
	return nil
}

// decimate keeps every n-th sample, starting with the first; no samples
// give nil, which the JSON body encodes as null. At n = 1 it returns the
// samples themselves: the reply only reads them.
func decimate(samples []float64, n int) []float64 {
	if n == 1 && len(samples) > 0 {
		return samples
	}
	var out []float64
	for i := 0; i < len(samples); i += n {
		out = append(out, samples[i])
	}
	return out
}
