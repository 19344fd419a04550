package corpus

import (
	"math"
	"testing"

	"vase/internal/mna"
)

// mnaInputs returns circuit-level exercise waveforms for each benchmark's
// input ports (the mna.Waveform twin of appInputs).
func mnaInputs(key string) map[string]mna.Waveform {
	sine := func(amp, freq, phase float64) mna.Waveform {
		return func(t float64) float64 { return amp * math.Sin(2*math.Pi*freq*t+phase) }
	}
	dc := func(v float64) mna.Waveform {
		return func(float64) float64 { return v }
	}
	step := func(v0, v1, t0 float64) mna.Waveform {
		return func(t float64) float64 {
			if t < t0 {
				return v0
			}
			return v1
		}
	}
	switch key {
	case "receiver":
		return map[string]mna.Waveform{
			"line":  sine(0.4, 1e3, 0),
			"local": sine(0.15, 2.3e3, 0.7),
		}
	case "powermeter":
		return map[string]mna.Waveform{
			"vline": sine(1.0, 50, 0),
			"iline": sine(0.8, 50, -0.5),
		}
	case "missile":
		return map[string]mna.Waveform{
			"cmd":  step(0, 1, 0.01),
			"wind": dc(0.05),
			"bias": dc(0.2),
		}
	default:
		return map[string]mna.Waveform{}
	}
}

// mnaTranWindow returns a transient window long enough to exercise the
// nonlinear devices but short enough for the allocate-per-solve reference
// eliminator to stay cheap in tests.
func mnaTranWindow(key string) (tstop, h float64) {
	switch key {
	case "missile":
		return 0.1, 5e-4
	case "itersolver":
		return 0.5, 1e-3
	case "powermeter":
		return 10e-3, 1e-5
	default:
		return 1e-3, 1e-6
	}
}

// solverRun holds the complete observable output of one solver mode over a
// benchmark: DC operating point, transient trace, and AC sweep. Analyses
// that fail (some benchmarks have no standalone DC operating point, under
// any solver) record their error instead — the equivalence claim then is
// that every mode fails identically.
type solverRun struct {
	dc    mna.Solution
	dcErr string
	tr    *mna.Tran
	trErr string
	ac    *mna.ACResult
	acErr string
	nodes int
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func runSolverMode(t *testing.T, b *Build, key string, mode mna.SolverMode, method mna.Method, workers int) *solverRun {
	t.Helper()
	el, err := mna.Elaborate(b.Result.Netlist, mnaInputs(key))
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	c := el.Circuit
	c.Solver = mode
	c.Workers = workers
	c.SetMethod(method)
	run := &solverRun{nodes: c.NumNodes()}
	dc, err := c.DC()
	run.dc, run.dcErr = dc, errString(err)
	tstop, h := mnaTranWindow(key)
	tr, err := c.Transient(tstop, h)
	run.tr, run.trErr = tr, errString(err)
	// AC: stimulate the first input port, if the benchmark has one.
	for _, name := range []string{"line", "vline", "cmd"} {
		if _, ok := mnaInputs(key)[name]; !ok {
			continue
		}
		ac, err := c.AC("v_"+name, mna.LogSweep(10, 1e6, 25))
		run.ac, run.acErr = ac, errString(err)
		break
	}
	return run
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// compareRuns demands byte-identical traces: the exact tier's CSR
// factorization performs the reference eliminator's exact floating-point
// operation sequence (structural-zero skips are IEEE no-ops), so any
// difference at all — even one ULP — is a solver bug, not roundoff.
func compareRuns(t *testing.T, label string, ref, got *solverRun) {
	t.Helper()
	if ref.dcErr != got.dcErr {
		t.Fatalf("%s: DC error %q, reference %q", label, got.dcErr, ref.dcErr)
	}
	if len(ref.dc) != len(got.dc) {
		t.Fatalf("%s: DC dimension %d != %d", label, len(got.dc), len(ref.dc))
	}
	for i := range ref.dc {
		if !bitsEqual(ref.dc[i], got.dc[i]) {
			t.Fatalf("%s: DC[%d] = %x, reference %x", label, i,
				math.Float64bits(got.dc[i]), math.Float64bits(ref.dc[i]))
		}
	}
	if ref.trErr != got.trErr {
		t.Fatalf("%s: transient error %q, reference %q", label, got.trErr, ref.trErr)
	}
	if (ref.tr == nil) != (got.tr == nil) {
		t.Fatalf("%s: transient presence mismatch", label)
	}
	if ref.tr != nil {
		if len(ref.tr.Time) != len(got.tr.Time) {
			t.Fatalf("%s: transient length %d != %d", label, len(got.tr.Time), len(ref.tr.Time))
		}
		for n := 1; n <= ref.nodes; n++ {
			rw, gw := ref.tr.V[mna.Node(n)], got.tr.V[mna.Node(n)]
			for i := range rw {
				if !bitsEqual(rw[i], gw[i]) {
					t.Fatalf("%s: node %d sample %d (t=%g) = %x, reference %x",
						label, n, i, ref.tr.Time[i],
						math.Float64bits(gw[i]), math.Float64bits(rw[i]))
				}
			}
		}
	}
	if ref.acErr != got.acErr {
		t.Fatalf("%s: AC error %q, reference %q", label, got.acErr, ref.acErr)
	}
	if (ref.ac == nil) != (got.ac == nil) {
		t.Fatalf("%s: AC presence mismatch", label)
	}
	if ref.ac == nil {
		return
	}
	if len(ref.ac.Freqs) != len(got.ac.Freqs) || ref.ac.Truncated != got.ac.Truncated {
		t.Fatalf("%s: AC sweep shape mismatch", label)
	}
	for n := 1; n <= ref.nodes; n++ {
		rw, gw := ref.ac.V[mna.Node(n)], got.ac.V[mna.Node(n)]
		if len(rw) != len(gw) {
			t.Fatalf("%s: AC node %d length %d != %d", label, n, len(gw), len(rw))
		}
		for i := range rw {
			if !bitsEqual(real(rw[i]), real(gw[i])) || !bitsEqual(imag(rw[i]), imag(gw[i])) {
				t.Fatalf("%s: AC node %d point %d = %v, reference %v", label, n, i, gw[i], rw[i])
			}
		}
	}
}

// TestSolverEquivalenceAllApps pins the tentpole guarantee of the sparse
// allocation-free MNA core: for every corpus benchmark, the exact tier and
// its parallel AC sweep produce DC/transient/AC results byte-identical to
// the original allocate-per-solve reference eliminator, under both
// integration methods.
func TestSolverEquivalenceAllApps(t *testing.T) {
	for _, app := range Applications() {
		app := app
		t.Run(app.Key, func(t *testing.T) {
			b, err := buildDefault(app)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			for _, method := range []mna.Method{mna.BackwardEuler, mna.Trapezoidal} {
				methodName := "be"
				if method == mna.Trapezoidal {
					methodName = "trap"
				}
				ref := runSolverMode(t, b, app.Key, mna.SolverReference, method, 1)
				cases := []struct {
					label   string
					mode    mna.SolverMode
					workers int
				}{
					{methodName + "/exact", mna.SolverAuto, 1},
					{methodName + "/exact-parallel-ac", mna.SolverAuto, 8},
				}
				for _, tc := range cases {
					got := runSolverMode(t, b, app.Key, tc.mode, method, tc.workers)
					compareRuns(t, tc.label, ref, got)
				}
			}
		})
	}
}
