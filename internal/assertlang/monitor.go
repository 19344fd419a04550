package assertlang

import (
	"fmt"
	"math"
)

// Verdict is the three-valued outcome of a monitored assertion.
type Verdict int

// Verdicts. Unknown is the verdict of an assertion that a truncated trace
// (Trace.Truncated / Tran.Truncated) left unresolved: the observed prefix
// neither satisfied nor conclusively violated it.
const (
	Unknown Verdict = iota
	Pass
	Fail
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "PASS"
	case Fail:
		return "FAIL"
	case Unknown:
		return "UNKNOWN"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Outcome is the resolved result of one monitor.
type Outcome struct {
	Assertion *Assertion
	Verdict   Verdict
	// At is the trace time the verdict was decided (the violation time for
	// Fail, the satisfaction time for an eventually Pass, the last observed
	// sample otherwise). NaN when no sample was observed.
	At float64
	// Detail explains the verdict in one line.
	Detail string
}

func (o Outcome) String() string {
	return fmt.Sprintf("%-7s %s  (%s)", o.Verdict, o.Assertion.Text, o.Detail)
}

// Monitor is the streaming evaluator of one assertion. Feed it samples in
// time order with Step, then resolve it with Finish. A monitor is
// single-use and not safe for concurrent use.
type Monitor struct {
	a *Assertion

	started  bool
	lastT    float64
	firstT   float64
	decided  bool // verdict fixed before Finish (early Fail / eventually Pass)
	verdict  Verdict
	at       float64
	detail   string
	lastHold float64 // recurrence: time the predicate last held
	everHeld bool
	skipped  bool // a referenced signal was unavailable
}

// NewMonitor compiles the assertion into a streaming monitor.
func NewMonitor(a *Assertion) *Monitor {
	return &Monitor{a: a, at: math.NaN()}
}

// Assertion returns the monitored assertion.
func (m *Monitor) Assertion() *Assertion { return m.a }

// Step observes one sample at time t. env resolves signal names to values;
// returning ok=false marks the signal unavailable, which resolves the whole
// monitor to Unknown (a monitor must never fail on a probe it cannot see).
func (m *Monitor) Step(t float64, env func(name string) (float64, bool)) {
	if m.decided || m.skipped {
		return
	}
	if !m.started {
		m.started = true
		m.firstT = t
		m.lastHold = t
	}
	m.lastT = t
	val, ok := m.a.Pred.Eval(env)
	if !ok {
		m.skipped = true
		m.detail = "a referenced signal is not recorded in this trace"
		return
	}
	switch m.a.Form {
	case Always:
		if !val {
			m.decide(Fail, t, fmt.Sprintf("violated at t=%g", t))
		}
	case Eventually:
		rel := t - m.firstT
		if val && rel <= m.a.Window {
			m.decide(Pass, t, fmt.Sprintf("satisfied at t=%g (window %g)", t, m.a.Window))
		} else if !val && rel > m.a.Window {
			m.decide(Fail, t, fmt.Sprintf("window of %g s expired at t=%g without the predicate holding", m.a.Window, t))
		}
	case Recurrence:
		if val {
			m.lastHold = t
			m.everHeld = true
		} else if gap := t - m.lastHold; gap > m.a.Window {
			m.decide(Fail, t, fmt.Sprintf("no satisfying sample for %g s (> every %g) ending at t=%g", gap, m.a.Window, t))
		}
	}
}

func (m *Monitor) decide(v Verdict, at float64, detail string) {
	m.decided = true
	m.verdict = v
	m.at = at
	m.detail = detail
}

// Finish resolves the monitor after the last sample. truncated reports that
// the trace was cut short (cancellation, deadline, step budget): an
// assertion that has not already failed on the observed prefix is then
// inconclusive and resolves to Unknown, never Fail — the missing suffix
// could still have satisfied (or, for always/recurrence, only later
// violated) the property.
func (m *Monitor) Finish(truncated bool) Outcome {
	out := Outcome{Assertion: m.a, Verdict: m.verdict, At: m.at, Detail: m.detail}
	if m.decided {
		// An early verdict stands: a violation already observed in the
		// prefix is conclusive even when the trace is truncated, and an
		// eventually-within satisfaction can never be retracted.
		return out
	}
	if m.skipped || !m.started {
		out.Verdict = Unknown
		if out.Detail == "" {
			out.Detail = "no samples observed"
		}
		return out
	}
	out.At = m.lastT
	if truncated {
		out.Verdict = Unknown
		out.Detail = fmt.Sprintf("trace truncated at t=%g before the property resolved", m.lastT)
		return out
	}
	switch m.a.Form {
	case Always:
		out.Verdict = Pass
		out.Detail = fmt.Sprintf("held at all %s samples", span(m.firstT, m.lastT))
	case Eventually:
		if m.lastT-m.firstT < m.a.Window {
			// The run ended before the response window closed: the
			// property is unresolved, not violated.
			out.Verdict = Unknown
			out.Detail = fmt.Sprintf("trace ends at t=%g, before the %g s window closes", m.lastT, m.a.Window)
		} else {
			out.Verdict = Fail
			out.Detail = fmt.Sprintf("window of %g s expired without the predicate holding", m.a.Window)
		}
	case Recurrence:
		if m.lastT-m.firstT < m.a.Window {
			out.Verdict = Unknown
			out.Detail = fmt.Sprintf("trace spans %g s, shorter than the %g s recurrence window", m.lastT-m.firstT, m.a.Window)
		} else if !m.everHeld {
			out.Verdict = Fail
			out.Detail = "the predicate never held"
		} else {
			out.Verdict = Pass
			out.Detail = fmt.Sprintf("recurred with gaps <= %g s over %s", m.a.Window, span(m.firstT, m.lastT))
		}
	}
	return out
}

func span(t0, t1 float64) string { return fmt.Sprintf("[%g, %g]", t0, t1) }

// CheckSampled runs monitors for every assertion over an already-recorded
// trace: time holds the sample instants, get resolves (signal, sample
// index) to a value, truncated carries the trace's truncation flag. It is
// the offline twin of the streaming path and returns one outcome per
// assertion, in order.
func CheckSampled(as []*Assertion, time []float64, get func(name string, i int) (float64, bool), truncated bool) []Outcome {
	ms := make([]*Monitor, len(as))
	for i, a := range as {
		ms[i] = NewMonitor(a)
	}
	for i, t := range time {
		i := i
		env := func(name string) (float64, bool) { return get(name, i) }
		for _, m := range ms {
			m.Step(t, env)
		}
	}
	out := make([]Outcome, len(ms))
	for i, m := range ms {
		out[i] = m.Finish(truncated)
	}
	return out
}

// Failed reports whether any outcome is a conclusive Fail.
func Failed(outs []Outcome) bool {
	for _, o := range outs {
		if o.Verdict == Fail {
			return true
		}
	}
	return false
}
