// Package wavespec parses the textual waveform specifications shared by the
// vasesim CLI (-in name=spec) and the vased server (/v1/simulate request
// bodies):
//
//	dc:V           constant source
//	sine:AMP,FREQ  sinusoid (phase 0)
//	step:V0,V1,T0  V0 until T0, V1 after
//	ramp:SLOPE     linear ramp through the origin
//
// Keeping the grammar in one package guarantees a spec means the same
// waveform whether it arrives on a command line or in a JSON request.
package wavespec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"vase/internal/sim"
)

// Parse turns a spec like "sine:1.5,1000" into a simulation source.
func Parse(spec string) (sim.Source, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	nums := func(n int) ([]float64, error) {
		parts := strings.Split(rest, ",")
		if len(parts) != n {
			return nil, fmt.Errorf("waveform %q requires %d parameters", kind, n)
		}
		out := make([]float64, n)
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("waveform parameter %q: %v", p, err)
			}
			out[i] = v
		}
		return out, nil
	}
	switch kind {
	case "dc":
		v, err := nums(1)
		if err != nil {
			return nil, err
		}
		return sim.DC(v[0]), nil
	case "sine":
		v, err := nums(2)
		if err != nil {
			return nil, err
		}
		return sim.Sine(v[0], v[1], 0), nil
	case "step":
		v, err := nums(3)
		if err != nil {
			return nil, err
		}
		return sim.Step(v[0], v[1], v[2]), nil
	case "ramp":
		v, err := nums(1)
		if err != nil {
			return nil, err
		}
		return sim.Ramp(v[0]), nil
	}
	return nil, fmt.Errorf("unknown waveform kind %q (dc, sine, step, ramp)", kind)
}

// ParseMap parses a name->spec map (a JSON request's "inputs" object) into
// named simulation sources. Names are visited in sorted order, so when
// several specs are malformed the error always names the first of them.
func ParseMap(specs map[string]string) (map[string]sim.Source, error) {
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]sim.Source, len(specs))
	for _, name := range names {
		w, err := Parse(specs[name])
		if err != nil {
			return nil, fmt.Errorf("input %q: %w", name, err)
		}
		out[name] = w
	}
	return out, nil
}
