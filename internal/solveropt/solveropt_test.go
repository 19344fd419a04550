package solveropt

import (
	"flag"
	"strings"
	"testing"

	"vase/internal/mna"
)

func TestParseRoundTrip(t *testing.T) {
	for _, name := range Names() {
		mode, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if mode.String() != name {
			t.Errorf("Parse(%q).String() = %q", name, mode.String())
		}
	}
}

func TestParseUnknownListsValid(t *testing.T) {
	_, err := Parse("sparse")
	if err == nil {
		t.Fatal("Parse(sparse) accepted; only the engine's three tiers are tool vocabulary")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid tier %q", err, name)
		}
	}
}

func TestModeMapping(t *testing.T) {
	cases := map[string]mna.SolverMode{
		"reference": mna.SolverReference,
		"exact":     mna.SolverAuto,
		"fast":      mna.SolverFast,
	}
	for name, want := range cases {
		if got, _ := Parse(name); got != want {
			t.Errorf("Parse(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestFlagBinding(t *testing.T) {
	mode := mna.SolverAuto
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.Var(Flag{&mode}, "solver", Usage)
	if err := fs.Parse([]string{"-solver=fast"}); err != nil {
		t.Fatal(err)
	}
	if mode != mna.SolverFast {
		t.Fatalf("mode = %v after -solver=fast", mode)
	}
	fs2 := flag.NewFlagSet("x", flag.ContinueOnError)
	fs2.SetOutput(new(strings.Builder))
	fs2.Var(Flag{&mode}, "solver", Usage)
	if err := fs2.Parse([]string{"-solver=bogus"}); err == nil {
		t.Fatal("unknown tier accepted by the flag binding")
	}
}
