// Package diag provides structured diagnostics for the VASE toolchain.
//
// Every diagnostic carries a stable code (such as VASS0201) from a central
// registry, a severity, a resolved primary position with an optional end
// position, optional related positions, and an optional suggested-fix text.
// Diagnostics are collected in a List, which sorts and dedupes itself so
// that tool output is deterministic, and can be rendered either as pretty
// terminal text with source excerpts and caret markers or as JSON for
// editor and CI integration.
//
// The front end (lexer, parser, sema), the VHIF compiler, the VHIF
// structural validator and the lint analyzers all report through this
// package; the diagcheck static-analysis pass enforces that those packages
// construct no naked fmt.Errorf errors.
package diag

import (
	"fmt"
	"sort"
	"strings"

	"vase/internal/source"
)

// Severity classifies a diagnostic.
type Severity int

// Severities, in increasing order of gravity.
const (
	Info Severity = iota
	Warning
	Error
)

// String renders the severity as its lower-case name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Related is a secondary position that gives context for a diagnostic, such
// as the declaration site of a symbol reported at a use site.
type Related struct {
	Pos source.Position
	Msg string
}

// Diagnostic is one structured finding.
type Diagnostic struct {
	// Code is the stable registry code, e.g. "VASS0201".
	Code Code
	// Severity of this instance (defaults to the code's registered severity).
	Severity Severity
	// Pos is the resolved primary position; a zero Pos means "no position"
	// (structural diagnostics on intermediate representations).
	Pos source.Position
	// End is the resolved end of the primary span when known.
	End source.Position
	// Msg is the human-readable message.
	Msg string
	// Fix is an optional suggested-fix text ("help:" in rendered output).
	Fix string
	// Related lists secondary positions with notes.
	Related []Related
}

// New returns a diagnostic with the code's registered severity at pos.
func New(code Code, pos source.Position, format string, args ...any) *Diagnostic {
	return &Diagnostic{
		Code:     code,
		Severity: code.Severity(),
		Pos:      pos,
		Msg:      fmt.Sprintf(format, args...),
	}
}

// Errorf returns a position-less diagnostic, for structural checks on
// representations that carry no source spans. It implements error, so it can
// be returned directly from validation functions.
func Errorf(code Code, format string, args ...any) *Diagnostic {
	return New(code, source.Position{}, format, args...)
}

// WithFix attaches a suggested-fix text and returns d.
func (d *Diagnostic) WithFix(format string, args ...any) *Diagnostic {
	d.Fix = fmt.Sprintf(format, args...)
	return d
}

// WithRelated attaches a secondary position with a note and returns d.
func (d *Diagnostic) WithRelated(pos source.Position, format string, args ...any) *Diagnostic {
	d.Related = append(d.Related, Related{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	return d
}

// HasPos reports whether the diagnostic carries a resolved source position.
func (d *Diagnostic) HasPos() bool {
	return d.Pos.Line > 0 || d.Pos.Filename != ""
}

// Error renders the diagnostic on one line: "file:line:col: [severity:] msg
// [CODE]". The severity prefix is omitted for errors so that existing
// "pos: msg" consumers keep working.
func (d *Diagnostic) Error() string {
	var b strings.Builder
	if d.HasPos() {
		b.WriteString(d.Pos.String())
		b.WriteString(": ")
	}
	if d.Severity != Error {
		b.WriteString(d.Severity.String())
		b.WriteString(": ")
	}
	b.WriteString(d.Msg)
	if d.Code != "" {
		fmt.Fprintf(&b, " [%s]", d.Code)
	}
	return b.String()
}

// List collects diagnostics during a pass.
type List []*Diagnostic

// Add appends d.
func (l *List) Add(d *Diagnostic) { *l = append(*l, d) }

// Addf appends a new diagnostic with the code's registered severity.
func (l *List) Addf(code Code, pos source.Position, format string, args ...any) *Diagnostic {
	d := New(code, pos, format, args...)
	l.Add(d)
	return d
}

// Sort orders the list by file, line, column, severity (most severe first),
// code, then message, so that output is deterministic.
func (l List) Sort() {
	sort.SliceStable(l, func(i, j int) bool {
		a, b := l[i], l[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
}

// Dedupe removes diagnostics identical in code, position and message,
// keeping the first occurrence. The receiver must already be sorted for
// duplicates to be adjacent; Dedupe handles the general case by key lookup.
func (l *List) Dedupe() {
	seen := make(map[string]bool, len(*l))
	out := (*l)[:0]
	for _, d := range *l {
		key := string(d.Code) + "\x00" + d.Pos.String() + "\x00" + d.Msg
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, d)
	}
	*l = out
}

// Wrapf prefixes err's message with a formatted context string. When err is
// a *Diagnostic its code, severity and position are preserved.
func Wrapf(err error, format string, args ...any) error {
	prefix := fmt.Sprintf(format, args...)
	if d, ok := err.(*Diagnostic); ok {
		clone := *d
		clone.Msg = prefix + ": " + d.Msg
		return &clone
	}
	return fmt.Errorf("%s: %w", prefix, err)
}

// Len returns the number of collected diagnostics.
func (l List) Len() int { return len(l) }

// HasErrors reports whether the list contains an Error-severity diagnostic.
func (l List) HasErrors() bool {
	for _, d := range l {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Count returns the number of diagnostics at exactly severity s.
func (l List) Count(s Severity) int {
	n := 0
	for _, d := range l {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// Filter returns the diagnostics with severity >= min, preserving order.
func (l List) Filter(min Severity) List {
	var out List
	for _, d := range l {
		if d.Severity >= min {
			out = append(out, d)
		}
	}
	return out
}

// Promote returns a copy of the list with every warning raised to an error
// (the -Werror behavior). Info diagnostics are unchanged.
func (l List) Promote() List {
	out := make(List, len(l))
	for i, d := range l {
		if d.Severity == Warning {
			c := *d
			c.Severity = Error
			out[i] = &c
		} else {
			out[i] = d
		}
	}
	return out
}

// Err sorts and dedupes the list in place, then returns it as an error when
// it contains at least one Error-severity diagnostic, and nil otherwise.
func (l *List) Err() error {
	l.Sort()
	l.Dedupe()
	if l.HasErrors() {
		return *l
	}
	return nil
}

// Error renders at most ten diagnostics, one per line, mirroring the legacy
// source.ErrorList format.
func (l List) Error() string {
	var b strings.Builder
	for i, d := range l {
		if i == 10 {
			fmt.Fprintf(&b, "... and %d more diagnostics", len(l)-10)
			break
		}
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(d.Error())
	}
	if b.Len() == 0 {
		return "no diagnostics"
	}
	return b.String()
}
