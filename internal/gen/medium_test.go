package gen

import (
	"testing"

	"vase/internal/mapper"
	"vase/internal/mna"
)

// TestExactMatchesReferenceMedium pins the exact MNA tier on medium
// circuits, which the solver campaign pair skips (MaxQuants) and the corpus
// equivalence suite never reaches: seed-1 ladder specs 3 and 7 (reduced
// dimensions 311 and 273), mapped under TestLevelsAgreeOnLadderSpecs's
// search policy. DC and a 20-step transient at TStep/5 must be bit-identical
// to SolverReference, and the exact tier must absorb its elimination fill
// without restarting a factorization: one factorization per Newton
// iteration.
func TestExactMatchesReferenceMedium(t *testing.T) {
	for _, i := range []int{3, 7} {
		sp := Generate(1, i, MixedSize(i))
		m, err := CompileSpec(sp)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		opts := searchOptions(sp)
		opts.MaxNodes = 1 << 15
		res, err := mapper.Synthesize(m, opts)
		if err != nil {
			t.Fatalf("spec %d: synthesize: %v", i, err)
		}
		waves := make(map[string]mna.Waveform, len(sp.Inputs))
		for name, w := range sp.Inputs { //vase:unordered (map-to-map conversion)
			waves[name] = mna.Waveform(w.Source())
		}
		observe := func(mode mna.SolverMode) (*solverObservation, mna.SolverStats) {
			el, err := mna.Elaborate(res.Netlist, waves)
			if err != nil {
				t.Fatalf("spec %d: elaborate: %v", i, err)
			}
			c := el.Circuit
			c.Solver = mode
			o := &solverObservation{nodes: c.NumNodes()}
			dc, err := c.DC()
			o.dc, o.dcErr = dc, errText(err)
			tr, err := c.Transient(4*sp.TStep, sp.TStep/5)
			o.tr, o.trErr = tr, errText(err)
			return o, c.SolverStats()
		}
		ref, _ := observe(mna.SolverReference)
		if ref.dcErr != "" || ref.trErr != "" {
			t.Fatalf("spec %d: reference failed: dc %q, transient %q", i, ref.dcErr, ref.trErr)
		}
		got, st := observe(mna.SolverAuto)
		if err := compareObservations(ref, got); err != nil {
			t.Errorf("spec %d: exact vs reference: %v", i, err)
		}
		if st.Factorizations != st.NewtonIterations {
			t.Errorf("spec %d: %d factorizations for %d Newton iterations", i, st.Factorizations, st.NewtonIterations)
		}
		if st.PeakDim < 150 {
			t.Errorf("spec %d: dimension %d is not a medium circuit", i, st.PeakDim)
		}
	}
}
