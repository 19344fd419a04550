package mna

import (
	"fmt"
	"sort"
	"strings"
)

// SpiceDeck renders the circuit as a SPICE-compatible deck. Op-amp
// macromodels emit a subcircuit with a saturating controlled source;
// behavioral elements and time-varying sources are emitted as commented
// placeholders for the user to bind.
func (c *Circuit) SpiceDeck(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "* %s — synthesized by VASE\n", title)
	b.WriteString("* Op amp macromodel: saturating VCVS (gain/swing per instance).\n")
	b.WriteString(".subckt opamp out inp inn PARAMS: gain=1e4 vmax=4\n")
	b.WriteString("  B1 out 0 V = {vmax}*tanh({gain}*(V(inp)-V(inn))/{vmax})\n")
	b.WriteString(".ends\n\n")

	// Node names, most readable first.
	nodeName := make(map[Node]string, len(c.names))
	var names []string
	for name := range c.names {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := c.names[name]
		if _, ok := nodeName[n]; !ok || name != "0" {
			nodeName[n] = name
		}
	}
	nodeName[Ground] = "0"
	nn := func(n Node) string {
		if s, ok := nodeName[n]; ok {
			return s
		}
		return fmt.Sprintf("n%d", int(n))
	}

	rIdx, cIdx, vIdx, sIdx, xIdx, bIdx := 0, 0, 0, 0, 0, 0
	for _, d := range c.devices {
		switch d.kind {
		case dResistor:
			rIdx++
			fmt.Fprintf(&b, "R%d_%s %s %s %g\n", rIdx, sanitize(d.name), nn(d.a), nn(d.b), d.value)
		case dCapacitor:
			cIdx++
			fmt.Fprintf(&b, "C%d_%s %s %s %g IC=%g\n", cIdx, sanitize(d.name), nn(d.a), nn(d.b), d.value, d.ic)
		case dVSource:
			vIdx++
			fmt.Fprintf(&b, "V%d_%s %s %s DC %g  * time-varying in-program source\n",
				vIdx, sanitize(d.name), nn(d.a), nn(d.b), d.wave(0))
		case dSwitch:
			sIdx++
			fmt.Fprintf(&b, "S%d_%s %s %s %s %s SWMOD  * ron=%g roff=%g vth=%g\n",
				sIdx, sanitize(d.name), nn(d.a), nn(d.b), nn(d.cp), nn(d.cm), d.ron, d.roff, d.vth)
		case dOpAmp:
			xIdx++
			fmt.Fprintf(&b, "X%d_%s %s %s %s opamp PARAMS: gain=%g vmax=%g\n",
				xIdx, sanitize(d.name), nn(d.a), nn(d.cp), nn(d.cm), d.gain, d.vmax)
		case dFunc:
			bIdx++
			var ins []string
			for _, n := range d.ctrl {
				ins = append(ins, "V("+nn(n)+")")
			}
			fmt.Fprintf(&b, "B%d_%s %s 0 V = f(%s)  * behavioral computational element\n",
				bIdx, sanitize(d.name), nn(d.a), strings.Join(ins, ", "))
		}
	}
	b.WriteString("\n.model SWMOD SW(RON=100 ROFF=1e9 VT=0)\n")
	b.WriteString(".end\n")
	return b.String()
}

func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, name)
}
