package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"vase/internal/sim"
	"vase/internal/vhif"
)

// streamSimulation runs the transient with Server-Sent Events: a `header`
// event naming the streamed columns, one `sample` event per recorded step
// (decimated by every), and a terminal `done` event (or `error` if the run
// fails, or a sample is not finite, after the stream has started — the
// status line is already on the wire by then, so the error must travel
// in-band).
//
// The sample events ride the simulator's OnSample hook, so a client sees
// waveforms while the integration is still running — including every sample
// of a run that a deadline later truncates.
func (s *Server) streamSimulation(ctx context.Context, w http.ResponseWriter, m *vhif.Module, inputs map[string]sim.Source, every int, opts sim.Options) *httpError {
	flusher, ok := w.(http.Flusher)
	if !ok {
		return errorf(http.StatusNotImplemented, "streaming unsupported by this connection")
	}
	// Columns: the module's ports, in declaration order. The probe resolves
	// any net, so inputs stream alongside outputs.
	var columns []string
	for _, p := range m.Ports {
		columns = append(columns, p.Name)
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	s.met.request("simulate", http.StatusOK)

	event := func(name string, payload any) {
		data, err := json.Marshal(payload)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
		flusher.Flush()
	}
	event("header", map[string]any{"signals": columns})

	// A sample JSON cannot carry ends the run: the hook records it and
	// cancels, and the stream reports it as the error event, never done.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var bad error
	samples := 0
	opts.OnSample = func(t float64, probe func(name string) (float64, bool)) {
		samples++
		if (samples-1)%every != 0 {
			return
		}
		values := make([]any, len(columns))
		for i, name := range columns {
			if v, ok := probe(name); ok {
				if bad = finiteSample(name, v, t); bad != nil {
					cancel()
					return
				}
				values[i] = v
			}
		}
		event("sample", map[string]any{"t": t, "v": values})
	}

	tr, err := sim.SimulateModuleContext(ctx, m, inputs, opts)
	if bad != nil {
		err = bad
	}
	if err != nil {
		event("error", map[string]any{"error": err.Error()})
		return nil
	}
	if tr.Truncated {
		s.met.degraded.Add(1)
	}
	event("done", map[string]any{"truncated": tr.Truncated, "samples": samples})
	return nil
}
