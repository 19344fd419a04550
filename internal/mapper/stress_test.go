// Stress layer for the traced search: repeated synthesis of the paper's
// Figure 6 example and the receiver application, meant to be run under
// `go test -race`. Every iteration must reproduce the untraced mapping, keep
// the explored-node accounting inside the full-enumeration envelope, and
// emit a well-formed decision-tree trace.
package mapper_test

import (
	"testing"

	"vase/internal/corpus"
	"vase/internal/mapper"
	"vase/internal/vhif"
)

// checkTreeWellFormed walks a traced decision tree and validates its
// structural invariants, returning the number of complete leaves.
func checkTreeWellFormed(t *testing.T, root *mapper.TreeNode) int {
	t.Helper()
	if root == nil {
		t.Fatal("no decision tree recorded despite Options.Trace")
	}
	complete := 0
	var walk func(n *mapper.TreeNode, isRoot bool)
	walk = func(n *mapper.TreeNode, isRoot bool) {
		if n.Complete {
			complete++
			if len(n.Children) != 0 {
				t.Errorf("complete leaf %q has %d children", n.Decision, len(n.Children))
			}
		}
		if n.Pruned && len(n.Children) != 0 {
			t.Errorf("pruned leaf %q has %d children", n.Decision, len(n.Children))
		}
		if n.Complete && n.Pruned {
			t.Errorf("node %q both complete and pruned", n.Decision)
		}
		if n.OpAmps < 0 {
			t.Errorf("node %q has negative op amp count %d", n.Decision, n.OpAmps)
		}
		if !isRoot && n.Decision == "" {
			t.Error("interior node with empty decision")
		}
		for _, c := range n.Children {
			walk(c, false)
		}
	}
	walk(root, true)
	return complete
}

func TestParallelStressSharedBound(t *testing.T) {
	iters := 100
	if testing.Short() {
		iters = 10
	}
	designs := []namedModule{
		{"fig6", corpus.Figure6Module()},
		{"receiver", compileVASS(t, "receiver", corpus.ByKey("receiver").Source)},
	}
	for _, nm := range designs {
		nm := nm
		t.Run(nm.key, func(t *testing.T) {
			stressDesign(t, nm.m, iters)
		})
	}
}

func stressDesign(t *testing.T, m *vhif.Module, iters int) {
	seq, err := mapper.Synthesize(m, mapper.DefaultOptions())
	if err != nil {
		t.Fatalf("untraced reference: %v", err)
	}
	// The envelope run is traced too, so it searches the same one part as
	// the stressed runs.
	unbOpts := mapper.DefaultOptions()
	unbOpts.NoBounding = true
	unbOpts.Trace = true
	unb, err := mapper.Synthesize(m, unbOpts)
	if err != nil {
		t.Fatalf("unbounded reference: %v", err)
	}
	wantDump := seq.Netlist.Dump()

	for i := 0; i < iters; i++ {
		opts := mapper.DefaultOptions()
		opts.Trace = true
		res, err := mapper.Synthesize(m, opts)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if got := res.Netlist.Dump(); got != wantDump {
			t.Fatalf("iteration %d: mapping diverged from the untraced search\n--- want ---\n%s\n--- got ---\n%s",
				i, wantDump, got)
		}
		st := res.Stats
		if st.NodesVisited <= 0 || st.NodesVisited > unb.Stats.NodesVisited {
			t.Fatalf("iteration %d: NodesVisited = %d, want in (0, %d] (full-enumeration envelope)",
				i, st.NodesVisited, unb.Stats.NodesVisited)
		}
		if st.CompleteMappings < 1 || st.CompleteMappings > unb.Stats.CompleteMappings {
			t.Fatalf("iteration %d: CompleteMappings = %d, want in [1, %d]",
				i, st.CompleteMappings, unb.Stats.CompleteMappings)
		}
		if st.CompleteMappings > st.NodesVisited {
			t.Fatalf("iteration %d: more completions (%d) than node visits (%d)",
				i, st.CompleteMappings, st.NodesVisited)
		}
		if n := checkTreeWellFormed(t, res.Tree); n != st.CompleteMappings {
			t.Fatalf("iteration %d: trace shows %d complete leaves, stats say %d",
				i, n, st.CompleteMappings)
		}
	}
}
