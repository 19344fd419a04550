package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the public function it calls. Spans of one op share an op
// id; the op's root span has parent -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans and counts in memory. A disabled or nil tracer
// records nothing, so untraced passes execute the same op code with only a
// branch per boundary.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	open   int // innermost open span, -1 when none
	counts map[string]float64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), open: -1, counts: map[string]float64{}}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string, op int) int {
	if !t.enabled() {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: t.open, Start: int64(time.Since(t.t0))})
	t.open = len(t.spans) - 1
	return t.open
}

// enabled reports whether the tracer records, for callers that gather
// counts before a span opens.
func (t *tracer) enabled() bool { return t != nil && t.on }

// end closes the span begin returned.
func (t *tracer) end(h int) {
	if !t.enabled() || h < 0 {
		return
	}
	t.spans[h].End = int64(time.Since(t.t0))
	t.open = t.spans[h].Parent
}

// add accumulates a count recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t.enabled() {
		t.counts[name] += v
	}
}

// layerRow is one line of the attribution ledger: a layer's calls and its
// self time (span duration minus the time its child spans cover).
type layerRow struct {
	Layer  string  `json:"layer"`
	Calls  int     `json:"calls"`
	SelfMS float64 `json:"self_ms"`
}

// selfTimes folds the spans into per-layer rows and returns them with the
// total duration of the op root spans.
func selfTimes(spans []span) (rows []layerRow, opMS float64) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*layerRow{}
	for i, s := range spans {
		d := s.End - s.Start
		name := s.Name
		if s.Parent < 0 {
			// An op's root span covers the whole op; its self time is the
			// benchmark's own glue between layer calls.
			opMS += float64(d) / 1e6
			name = "bench"
		}
		r := byName[name]
		if r == nil {
			r = &layerRow{Layer: name}
			byName[name] = r
		}
		r.Calls++
		r.SelfMS += float64(d-child[i]) / 1e6
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].SelfMS > rows[b].SelfMS })
	return rows, opMS
}

// selfMS returns the self time of one layer, or 0 when it recorded no span.
func selfMS(rows []layerRow, layer string) float64 {
	for _, r := range rows {
		if r.Layer == layer {
			return r.SelfMS
		}
	}
	return 0
}
