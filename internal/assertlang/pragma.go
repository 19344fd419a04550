package assertlang

import (
	"fmt"
	"strings"
)

// PragmaPrefix introduces an inline assertion in a VASS source file. The
// VASS lexer discards comments, so assertions ride in them:
//
//	-- assert: always abs(earph) <= 1.6
//	-- assert: eventually earph >= 1.4 within 0.4 ms
//
// Pragmas are whole-line comments; a pragma anywhere in a line after code
// is also honored.
const PragmaPrefix = "-- assert:"

// FromSource extracts and parses every assertion pragma in a VASS source
// text. Parse errors carry the 1-based source line of the offending pragma.
func FromSource(text string) ([]*Assertion, error) {
	var out []*Assertion
	for i, line := range strings.Split(text, "\n") {
		idx := strings.Index(line, PragmaPrefix)
		if idx < 0 {
			continue
		}
		spec := strings.TrimSpace(line[idx+len(PragmaPrefix):])
		if spec == "" {
			return nil, fmt.Errorf("line %d: empty assert pragma", i+1)
		}
		a, err := Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", i+1, err)
		}
		out = append(out, a)
	}
	return out, nil
}
