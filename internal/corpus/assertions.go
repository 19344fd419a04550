package corpus

import (
	"context"

	"vase/internal/assertlang"
	"vase/internal/mna"
)

// Figure8AssertionTexts is the golden dense-time property set for the
// paper's Figure 8 experiment: the receiver driven with a deliberately
// high-amplitude 1 kHz line input clips its earphone output at +-1.5 V.
// The bounds carry a small margin over the ideal clip level (the op-amp
// macromodel overshoots the limiter by a few percent), and the eventually/
// recurrence properties pin down that clipping actually happens — on both
// rails, and once per input period.
var Figure8AssertionTexts = []string{
	"bound earph in -1.6 .. 1.6",
	"eventually v(earph) >= 1.4 within 1e-3",
	"eventually v(earph) <= -1.4 within 1.5e-3",
	"recurrence v(earph) >= 1.4 every 1.2e-3",
}

// Figure8Assertions parses the golden Figure 8 property set.
func Figure8Assertions() []*assertlang.Assertion {
	as := make([]*assertlang.Assertion, len(Figure8AssertionTexts))
	for i, text := range Figure8AssertionTexts {
		a, err := assertlang.Parse(text)
		if err != nil {
			panic("corpus: bad golden assertion " + text + ": " + err.Error())
		}
		as[i] = a
	}
	return as
}

// Figure8Monitored reruns the Figure 8 experiment with the golden
// assertions attached as streaming monitors on the circuit-level
// transient. maxSteps bounds the integration (0 = the full 3 ms run); a
// truncated run resolves undecided assertions to Unknown, never Fail.
// The context cancels the transient midway like any anytime run; onSample
// (optional) observes each recorded sample time — tests use it to cancel
// at a deterministic point in the trace.
func Figure8Monitored(ctx context.Context, maxSteps int, onSample func(t float64)) ([]assertlang.Outcome, *mna.Elaborated, *mna.Tran, error) {
	el, err := figure8Circuit()
	if err != nil {
		return nil, nil, nil, err
	}
	ms := assertlang.Monitors(Figure8Assertions())
	el.Circuit.MaxTranSteps = maxSteps
	stream := assertlang.StreamCircuit(el, ms)
	el.Circuit.OnSample = func(t float64, v mna.Solution) {
		stream(t, v)
		if onSample != nil {
			onSample(t)
		}
	}
	tr, err := el.Circuit.TransientContext(ctx, 3e-3, 1e-6)
	if err != nil {
		return nil, nil, nil, err
	}
	return assertlang.FinishAll(ms, tr.Truncated), el, tr, nil
}
