package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"time"

	"vase/internal/gen"
	"vase/internal/pipeline"
	"vase/internal/server"
	"vase/internal/vhif"
)

// request is one pre-encoded vased request of the serve mix.
type request struct {
	key      string // golden key: "<design>/<endpoint>"
	endpoint string // span name and latency class
	path     string
	body     []byte
	// digest extracts the part of the response the golden pins, and the
	// architecture a synthesize reply describes.
	digest func(body []byte) (string, *designObs, error)
}

// waveSpec renders a ladder stimulus in the wavespec grammar vased accepts.
// The grammar's sine has no phase argument, so the request stimulus is the
// spec's sine at phase 0.
func waveSpec(w gen.Wave) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	switch w.Shape {
	case "sine":
		return "sine:" + f(w.Amp) + "," + f(w.Freq)
	case "step":
		return "step:" + f(w.V0) + "," + f(w.V1) + "," + f(w.At)
	default:
		return "dc:" + f(w.Level)
	}
}

// appInputs drives every analog input port of an application: Figure 8's
// stimulus on the receiver, a 1 V 1 kHz sine elsewhere.
func appInputs(d *design) (map[string]string, error) {
	if d.App.Key == "receiver" {
		return map[string]string{"line": "sine:1.5,1000", "local": "dc:0"}, nil
	}
	m, err := compileDesign(d)
	if err != nil {
		return nil, err
	}
	in := map[string]string{}
	for _, p := range m.Ports {
		if p.Dir == vhif.DirIn && p.Kind == vhif.PortQuantity {
			in[p.Name] = "sine:1,1000"
		}
	}
	return in, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain maps of strings and numbers always encode
	}
	return b
}

func digestLint(body []byte) (string, *designObs, error) {
	var r struct {
		Findings json.RawMessage `json:"findings"`
		Errors   int             `json:"errors"`
		Warnings int             `json:"warnings"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return "", nil, err
	}
	return newDigest().str(string(r.Findings)).str(fmt.Sprint(r.Errors, r.Warnings)).hex(), nil, nil
}

func digestSynthesize(body []byte) (string, *designObs, error) {
	var r struct {
		Netlist string  `json:"netlist"`
		OpAmps  int     `json:"op_amps"`
		AreaUm2 float64 `json:"area_um2"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return "", nil, err
	}
	return hashString(r.Netlist), &designObs{OpAmps: r.OpAmps, AreaUm2: r.AreaUm2}, nil
}

func digestSimulate(body []byte) (string, *designObs, error) {
	var r struct {
		Time      []float64            `json:"time"`
		Signals   map[string][]float64 `json:"signals"`
		Truncated bool                 `json:"truncated"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return "", nil, err
	}
	return newDigest().str(hashSignals(r.Time, r.Signals)).str(fmt.Sprint(r.Truncated)).hex(), nil, nil
}

// digestError pins an error reply by its body text.
func digestError(body []byte) (string, *designObs, error) { return hashString(string(body)), nil, nil }

// designRequests builds one request per endpoint for a design.
func designRequests(d *design) ([]request, error) {
	var inputs map[string]string
	var tstop, tstep, cstop, cstep float64
	if d.Spec != nil {
		inputs = map[string]string{}
		for name, w := range d.Spec.Inputs { //vase:unordered (map-to-map conversion)
			inputs[name] = waveSpec(w)
		}
		tstop, tstep = d.Spec.TStop, d.Spec.TStep
		cstop, cstep = 100*d.Spec.TStep, d.Spec.TStep/5
	} else {
		var err error
		if inputs, err = appInputs(d); err != nil {
			return nil, fmt.Errorf("%s: %w", d.Key, err)
		}
		tstop, tstep = 1e-3, 1e-6
		cstop, cstep = 1e-4, 2e-7
	}
	return []request{
		{key: d.Key + "/lint", endpoint: "lint", path: "/v1/lint", digest: digestLint,
			body: mustJSON(map[string]any{"name": d.File, "source": d.Source})},
		{key: d.Key + "/synthesize", endpoint: "synthesize", path: "/v1/synthesize", digest: digestSynthesize,
			body: mustJSON(map[string]any{"name": d.File, "source": d.Source, "workers": 1, "max_nodes": maxNodes})},
		{key: d.Key + "/simulate", endpoint: "simulate", path: "/v1/simulate", digest: digestSimulate,
			body: mustJSON(map[string]any{"name": d.File, "source": d.Source, "inputs": inputs, "tstop": tstop, "tstep": tstep})},
		{key: d.Key + "/circuit", endpoint: "circuit", path: "/v1/simulate", digest: digestSimulate,
			body: mustJSON(map[string]any{"name": d.File, "source": d.Source, "inputs": inputs, "tstop": cstop, "tstep": cstep, "level": "circuit"})},
	}, nil
}

// serveDesigns is serve's working set: Table 1 applications, then the toy
// and small specs of the ladder prefix whose search completes inside the
// node cap. A capped search answers 206 and is never cached, and a circuit
// request synthesizes at the server's default cap (1<<22 nodes, 14-27 s
// when it binds), so capped specs would put single requests of many
// seconds into the mix.
func serveDesigns(s scale, g *goldens) []*design {
	out := appDesigns()[:s.serveApps]
	for i := 0; i < s.serveScan; i++ {
		if sz := gen.MixedSize(i); sz != gen.SizeToy && sz != gen.SizeSmall {
			continue
		}
		d := ladderDesign(i)
		if obs, ok := g.Designs[d.Key]; ok && !obs.Nonoptimal {
			out = append(out, d)
		}
	}
	return out
}

// warmupDesign lies outside every working set: the first toy spec past
// the synth ladder's full prefix.
func warmupDesign() *design { return ladderDesign(fullScale.synthSpecs) }

// liveServer is one vased instance on a loopback listener with one
// keep-alive client connection.
type liveServer struct {
	pipe   *pipeline.Pipeline
	hs     *http.Server
	done   chan error
	client *http.Client
	base   string
}

func startServer() (*liveServer, error) {
	p, err := pipeline.New(pipeline.Options{})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Pipeline: p})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		pipe: p,
		hs:   &http.Server{Handler: srv},
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: "http://" + ln.Addr().String(),
	}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// stop closes the listener and the connection and waits for Serve to
// return.
func (ls *liveServer) stop() {
	ls.hs.Close()
	ls.client.CloseIdleConnections()
	if err := <-ls.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("# vased stopped with: %v\n", err)
	}
}

// do sends one request and returns the status and the full body.
func (ls *liveServer) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, ls.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// reply is one request's outcome in golden form.
type reply struct {
	obs    respObs
	design *designObs
	bytes  int
}

// observe sends a request and reduces the reply to its golden form.
func (ls *liveServer) observe(rq request) (reply, error) {
	status, body, err := ls.do(http.MethodPost, rq.path, rq.body)
	if err != nil {
		return reply{}, err
	}
	dig := rq.digest
	if status >= 400 {
		dig = digestError
	}
	d, design, err := dig(body)
	if err != nil {
		return reply{}, fmt.Errorf("decode %d reply: %w", status, err)
	}
	return reply{obs: respObs{Status: status, Body: d}, design: design, bytes: len(body)}, nil
}

// serveSchedule lays one pass out in rounds; each round visits every
// design in the seed's order for that round. Every round sends lint and
// synthesize; the first two rounds also send the circuit simulation, and
// the first one the behavioral simulation. Round 0 therefore misses every
// cache and later rounds hit the lint, map and spice memos, which fixes the
// hit share by construction; behavioral runs are never cached. With more
// cheap hits than anything else, p50 sits inside the hit class, and p90
// and p99 inside the computed requests.
func serveSchedule(reqs [][]request, reps int, seed int64) []request {
	var out []request
	for r := 0; r < reps; r++ {
		for _, i := range rand.New(rand.NewSource(seed + int64(r))).Perm(len(reqs)) {
			lint, synth, behavioral, circuit := reqs[i][0], reqs[i][1], reqs[i][2], reqs[i][3]
			out = append(out, lint, synth)
			if r < 2 {
				out = append(out, circuit)
			}
			if r == 0 {
				out = append(out, behavioral)
			}
		}
	}
	return out
}

func serveWorkload(s scale, g *goldens) (*workload, error) {
	var reqs [][]request
	for _, d := range serveDesigns(s, g) {
		rs, err := designRequests(d)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, rs)
	}
	warm, err := designRequests(warmupDesign())
	if err != nil {
		return nil, err
	}
	w := &workload{name: "serve", layers: serveLayers}
	w.setup = func(seed int64) (*pass, error) {
		ls, err := startServer()
		if err != nil {
			return nil, err
		}
		ps := &pass{teardown: ls.stop}
		ok := false
		defer func() {
			if !ok {
				ls.stop()
			}
		}()
		deadline := time.Now().Add(10 * time.Second)
		for {
			status, _, err := ls.do(http.MethodGet, "/healthz", nil)
			if err == nil && status == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("vased not healthy: status %d, %v", status, err)
			}
			time.Sleep(time.Millisecond)
		}
		for _, rq := range warm {
			if _, err := ls.observe(rq); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", rq.key, err)
			}
		}
		for _, rq := range serveSchedule(reqs, s.serveReps, seed) {
			rq := rq
			ps.ops = append(ps.ops, op{kind: rq.endpoint, key: rq.key, run: func(t *tracer, id int) opOut {
				var before pipeline.Stats
				if t.enabled() {
					before = ls.pipe.Stats()
				}
				h := t.begin("http", id)
				got, err := ls.observe(rq)
				t.end(h)
				if t.enabled() {
					recordPipeline(t, rq.endpoint, before, ls.pipe.Stats(), got.bytes)
				}
				if err != nil {
					return opOut{mismatch: err.Error()}
				}
				out := opOut{design: got.design}
				if want, ok := g.Serve[rq.key]; !ok || got.obs != want {
					out.mismatch = fmt.Sprintf("got %+v, golden %+v", got.obs, want)
				}
				return out
			}})
		}
		ok = true
		return ps, nil
	}
	return w, nil
}

// recordPipeline charges one request's pipeline work, read as deltas of
// the counters vased's /metrics renders, to the request's endpoint.
func recordPipeline(t *tracer, endpoint string, before, after pipeline.Stats, respBytes int) {
	var compute float64
	for st := pipeline.Stage(0); st < pipeline.NumStages; st++ {
		b, a := before.Stage(st), after.Stage(st)
		ms := float64((a.ComputeTime - b.ComputeTime).Nanoseconds()) / 1e6
		t.add("pipeline."+st.String()+".compute_ms", ms)
		t.add("pipeline."+st.String()+".misses", float64(a.Misses-b.Misses))
		// The estimate and netlist stages run on every synthesis, hit or
		// miss, so only the memoized stages count towards the hit share.
		if st != pipeline.StageEstimate && st != pipeline.StageNetlist {
			t.add("pipeline.hits", float64(a.Cached()-b.Cached()))
			t.add("pipeline.lookups", float64(a.Cached()-b.Cached()+a.Misses-b.Misses))
		}
		// Nested stages: the compile stage's compute contains the parse
		// and sema misses it triggers, so only top-level stages sum.
		if st != pipeline.StageParse && st != pipeline.StageSema {
			compute += ms
		}
	}
	t.add("pipeline.compute_ms."+endpoint, compute)
	t.add("server.resp_bytes", float64(respBytes))
	t.add("server.requests."+endpoint, 1)
}
