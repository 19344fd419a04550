package wavespec

import (
	"math"
	"testing"
)

func TestParseShapes(t *testing.T) {
	cases := []struct {
		spec string
		t    float64
		want float64
	}{
		{"dc:2.5", 0.123, 2.5},
		{"sine:2,1000", 0, 0},
		{"sine:2,1000", 0.00025, 2}, // quarter period of 1 kHz
		{"step:0,5,1e-3", 0.5e-3, 0},
		{"step:0,5,1e-3", 2e-3, 5},
		{"ramp:3", 2, 6},
		{"dc: 1.5", 0, 1.5}, // whitespace around parameters is tolerated
	}
	for _, c := range cases {
		w, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if got := w(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Parse(%q)(%g) = %g, want %g", c.spec, c.t, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",               // no kind
		"dc",             // missing parameter
		"dc:a",           // non-numeric
		"sine:1",         // too few parameters
		"sine:1,2,3",     // too many
		"square:1,2",     // unknown kind
		"step:0,5",       // too few
		"ramp:1,2",       // too many
		"dc:1;rm -rf /x", // junk after the number
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestParseMap(t *testing.T) {
	waves, err := ParseMap(map[string]string{"line": "dc:1", "local": "ramp:2"})
	if err != nil {
		t.Fatal(err)
	}
	if got := waves["line"](0); got != 1 {
		t.Errorf("line(0) = %g, want 1", got)
	}
	if got := waves["local"](3); got != 6 {
		t.Errorf("local(3) = %g, want 6", got)
	}
	if _, err := ParseMap(map[string]string{"x": "bogus:1"}); err == nil {
		t.Error("ParseMap with a bad spec succeeded, want error naming the input")
	}
}

// TestParseMapErrorDeterministic pins which input a multi-error map
// reports: the first bad one in sorted name order, on every call. Map
// iteration order is randomized, so an unordered walk names a different
// input from run to run and the error body of a /v1/simulate 400 drifts.
func TestParseMapErrorDeterministic(t *testing.T) {
	specs := map[string]string{"c": "bogus:3", "a": "dc:x", "b": "sine:1", "d": "dc:1"}
	const want = `input "a": waveform parameter "x": strconv.ParseFloat: parsing "x": invalid syntax`
	for i := 0; i < 200; i++ {
		_, err := ParseMap(specs)
		if err == nil {
			t.Fatal("ParseMap with bad specs succeeded")
		}
		if err.Error() != want {
			t.Fatalf("call %d: error %q, want %q", i, err, want)
		}
	}
}
