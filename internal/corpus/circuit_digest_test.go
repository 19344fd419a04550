package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"vase/internal/gen"
	"vase/internal/mapper"
	"vase/internal/mna"
)

// circuitDigestSpecs are the seed-1 ladder specs the circuit digest runs:
// the benchmark's simulate circuits. On specs 12 and 14 the fast tier
// falls back to exact Newton, so a relayout there drops the fast state
// and the digest pins the interplay of the two tiers.
var circuitDigestSpecs = []int{0, 1, 2, 3, 4, 6, 7, 9, 12, 14}

// circuitDigests pins both MNA tiers bit for bit: the hex SHA-256 of each
// run's DC solution, every transient sample, every AC point, every error
// text and the solver counters except Factorizations (see
// TestCircuitTraceDigests). The keys are design/be/tier for the Table 1
// applications (be: the backward-Euler transient) and gen/index/tier for
// the ladder specs.
var circuitDigests = map[string]string{
	"funcgen/be/exact":    "cccee47151130aa1a74f1e543667d2df9f7367ceff7681525266384e5aee48f6",
	"funcgen/be/fast":     "bed505764b0e708a77cd2ec2a127e96099b42a377b4dfcba739eaf0fa801e08f",
	"gen/0/exact":         "5227171e91045edc09e8c6bec69f659f4ef8ffd5ee8c6a0c5c7e96eb03a824ab",
	"gen/0/fast":          "913489eb2383ec9899408f1b6ba7a89b2db4fb00df4100af40c099512d317cd1",
	"gen/1/exact":         "ec7ca148e42ad20ce4434319c593de6ce47d8ff0aafe456155fe1f5ddc167448",
	"gen/1/fast":          "c3e5179bd274f7823cc6319e2011d4c94af1a8c0b2e6b9294482a26ee0e8f5ad",
	"gen/12/exact":        "13f3ca96fb59566715e44d279ff9423928fd42dde4d1423738ec166a3b785536",
	"gen/12/fast":         "f6996d97db25b966215e2228e90f22c328b7c2de0c9f0833d0b558b24545d033",
	"gen/14/exact":        "d143e0c3f816ee3675cba3698c8a3cce7849eab5d02ca48f9063b23e067d7a6b",
	"gen/14/fast":         "ed8d2252559c769136e0a74b505653b6184331e94b32ec4b1c3707c652e19864",
	"gen/2/exact":         "6eee9377bc75a0b18e8f8e5c945742da1ca0d63c6ae00e053678c45bab65b2c8",
	"gen/2/fast":          "5455244848f97155088860f55169608437109dc36d9f477ae2be1bb132d44428",
	"gen/3/exact":         "2d380284f6044f823cf0a4a74d186f1534858d79bc89cdb9e9060929ba3ccdc9",
	"gen/3/fast":          "057d03432ce91a75ba9f1151b61a9d8a09a8d95a8c4eca66592c81168d5a6652",
	"gen/4/exact":         "49f275c767db78d57866c3edb9560df28e1e682cb98b03b7b225327222a4d64c",
	"gen/4/fast":          "46d9f26cc23ded9ed5a1b5834a8f1387b4b110666460cddcbdc009619dec050f",
	"gen/6/exact":         "900ef9893958a47e7ca7d23f8d48e57e4ff6cdb19f960e1d4ca3e1400771c795",
	"gen/6/fast":          "5aa6b5213ddee533efcf6369acd149637e276afd1bd969606a0cfd2b0ae1174f",
	"gen/7/exact":         "2956e0320f6d00a6c4752e4809589459b9bbc3e35b0ad4fc9a271052f87d64ae",
	"gen/7/fast":          "31399a8a9df79c17e18fe242f37301f6eae18709bd1ea027a7859d43e98c2889",
	"gen/9/exact":         "de0bf3a0ab9db468cd45fb3454a79023329b0c0765de930abbee525e099de64c",
	"gen/9/fast":          "f0a8ff41ab039f18e13d00f319eca7a2b809e45ed1dc15381fbcae7633deff34",
	"itersolver/be/exact": "0d2ac871452a6c11b8d0798320d5460e541bf53e6a81da317d4392e7ffad55f2",
	"itersolver/be/fast":  "cba667ec392db4c12d40cd6c01d2cd37442fdf5ece4ca9e9393ae593df24e669",
	"missile/be/exact":    "a98de9e383bc6ec0a63c92e175634ba4c46ad5c794e435b7185221ecd26f4aed",
	"missile/be/fast":     "79547717255a2f277dbb6342eb71c8133ae97297e5cde2f9a28baff0e8cf859e",
	"powermeter/be/exact": "eff4b430b751c1b80443e898ad3039435d69eae98957e0a3902972a56cf9f29d",
	"powermeter/be/fast":  "74dbb256b5b6a9a4152aa0c030d5ff11b230571ec9740575daf3f215c1375d40",
	"receiver/be/exact":   "eef92359e72d1aabb9f3ced8137b4349c917a6a6a85ffca468ad622ff5fd1110",
	"receiver/be/fast":    "5154e09590455e9fa65511709c0da04cce00d79a5b0433e997a17f914d68a92b",
}

// TestCircuitTraceDigests runs DC, transient and AC on the exact and fast
// tiers and compares each run's digest to the recorded one. The five
// Table 1 applications run through runSolverMode; the ladder specs are
// mapped under TestLevelsAgreeOnLadderSpecs's search policy and run the
// solver campaign's window (100 TStep at TStep/5, a 12-point AC sweep on
// the first input in name order). Today
// the fast tier's other tests check only its error budget and its
// run-to-run determinism; this pins it exactly. Factorizations is left
// out: it counts the work a solver change may legitimately remove.
func TestCircuitTraceDigests(t *testing.T) {
	tiers := []struct {
		name string
		mode mna.SolverMode
	}{{"exact", mna.SolverAuto}, {"fast", mna.SolverFast}}
	got := map[string]string{}
	for _, app := range Applications() {
		b, err := buildDefault(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Key, err)
		}
		for _, tier := range tiers {
			got[app.Key+"/be/"+tier.name] = circuitDigest(runSolverMode(t, b, app.Key, tier.mode))
		}
	}
	for _, i := range circuitDigestSpecs {
		sp := gen.Generate(1, i, gen.MixedSize(i))
		m, err := gen.CompileSpec(sp)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		opts := mapper.DefaultOptions()
		opts.MaxNodes = 1 << 15
		opts.FirstFit = sp.Quants() > 12
		res, err := mapper.Synthesize(m, opts)
		if err != nil {
			t.Fatalf("spec %d: synthesize: %v", i, err)
		}
		for _, tier := range tiers {
			got[fmt.Sprintf("gen/%d/%s", i, tier.name)] = circuitDigest(runLadderSpec(t, sp, res, tier.mode))
		}
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want, ok := circuitDigests[k]; !ok || got[k] != want {
			t.Errorf("%s: digest %s, want %s", k, got[k], want)
		}
	}
	if len(got) != len(circuitDigests) {
		t.Errorf("ran %d circuits, %d digests recorded", len(got), len(circuitDigests))
	}
}

// runLadderSpec elaborates a mapped ladder spec and runs the solver
// campaign's DC, transient and AC observation on one tier.
func runLadderSpec(t *testing.T, sp *gen.Spec, res *mapper.Result, mode mna.SolverMode) *solverRun {
	t.Helper()
	waves := make(map[string]mna.Waveform, len(sp.Inputs))
	first := ""
	for name, w := range sp.Inputs { //vase:unordered (map-to-map conversion and minimum key)
		waves[name] = mna.Waveform(w.Source())
		if first == "" || name < first {
			first = name
		}
	}
	el, err := mna.Elaborate(res.Netlist, waves)
	if err != nil {
		t.Fatalf("%s: elaborate: %v", sp.Name, err)
	}
	c := el.Circuit
	c.Solver = mode
	run := &solverRun{nodes: c.NumNodes()}
	dc, err := c.DC()
	run.dc, run.dcErr = dc, errString(err)
	tr, err := c.Transient(100*sp.TStep, sp.TStep/5)
	run.tr, run.trErr = tr, errString(err)
	if first != "" {
		ac, err := c.AC("v_"+first, mna.LogSweep(10, 1e6, 12))
		run.ac, run.acErr = ac, errString(err)
	}
	run.stats = c.SolverStats()
	return run
}

// circuitDigest hashes a run's observables in a fixed order: each
// analysis's error text, or its values as float64 bits, then the counters.
func circuitDigest(run *solverRun) string {
	h := sha256.New()
	section := func(name, errText string) bool {
		h.Write([]byte(name + ": " + errText + "\n"))
		return errText == ""
	}
	if section("dc", run.dcErr) {
		putFloats(h, run.dc)
	}
	if section("tran", run.trErr) && run.tr != nil {
		putFloats(h, run.tr.Time)
		for n := 1; n <= run.nodes; n++ {
			putFloats(h, run.tr.V[mna.Node(n)])
		}
		if run.tr.Truncated {
			h.Write([]byte("truncated"))
		}
	}
	if section("ac", run.acErr) && run.ac != nil {
		putFloats(h, run.ac.Freqs)
		for n := 1; n <= run.nodes; n++ {
			for _, v := range run.ac.V[mna.Node(n)] {
				putFloat(h, real(v))
				putFloat(h, imag(v))
			}
		}
	}
	st := run.stats
	fmt.Fprintf(h, "newton %d reuses %d orderings %d fallbacks %d nonzeros %d fill %d",
		st.NewtonIterations, st.FactorReuses, st.Orderings, st.Fallbacks, st.Nonzeros, st.Fill)
	return hex.EncodeToString(h.Sum(nil))
}

// putFloats writes a length-prefixed float64 slice.
func putFloats(h hash.Hash, vs []float64) {
	putFloat(h, float64(len(vs)))
	for _, v := range vs {
		putFloat(h, v)
	}
}
