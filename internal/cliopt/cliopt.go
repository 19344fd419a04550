// Package cliopt is the command-line plumbing shared by the VASE tools:
// the input loader (-benchmark or one file argument), the
// -cache-dir/-cache-stats pipeline setup, the -timeout context and the
// diagnostic report and exit. Like solveropt, wavespec and exitcode it
// keeps one copy of each, so the tools' flags, usage errors, rendered
// findings and -cache-stats table cannot drift apart.
package cliopt

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"vase"
	"vase/internal/exitcode"
)

// LoadSource resolves a tool's input: the built-in benchmark named by
// -benchmark, else the one positional file argument. Every error is a
// usage error; the wrong-argument-count message names the tool.
func LoadSource(tool, benchmark string, args []string) (vase.Source, error) {
	if benchmark != "" {
		app, err := vase.Benchmark(benchmark)
		if err != nil {
			return vase.Source{}, err
		}
		return vase.Source{Name: benchmark + ".vhd", Text: app.Source}, nil
	}
	if len(args) != 1 {
		return vase.Source{}, fmt.Errorf("usage: %s [flags] file.vhd (or -benchmark name)", tool)
	}
	text, err := os.ReadFile(args[0])
	if err != nil {
		return vase.Source{}, err
	}
	return vase.Source{Name: args[0], Text: string(text)}, nil
}

// Cache binds a tool's -cache-dir and -cache-stats flags.
type Cache struct {
	dir   *string
	stats *bool
}

// CacheFlags registers -cache-dir and -cache-stats on the command line;
// artifacts names what -cache-dir persists, for the help text.
func CacheFlags(artifacts string) Cache {
	return Cache{
		dir:   flag.String("cache-dir", "", "persist "+artifacts+" in this directory (content-addressed, shareable across runs)"),
		stats: flag.Bool("cache-stats", false, "print the per-stage cache hit/miss table to stderr on exit"),
	}
}

// Open builds the tool's pipeline over -cache-dir. The returned function
// prints the per-stage cache table to stderr when -cache-stats is set;
// callers defer it.
func (c Cache) Open() (*vase.Pipeline, func(), error) {
	p, err := vase.NewPipeline(vase.PipelineOptions{CacheDir: *c.dir})
	if err != nil {
		return nil, nil, err
	}
	report := func() {
		if *c.stats {
			fmt.Fprint(os.Stderr, p.Stats())
		}
	}
	return p, report, nil
}

// Context returns the run's context for a -timeout value: with a deadline
// when timeout > 0, without one otherwise (the flags' "0 = none").
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

// ReportFindings prints the warning-or-worse findings to stderr, with every
// warning promoted to an error under -Werror, and reports whether the tool
// may proceed: false when any shown finding is an error.
func ReportFindings(findings vase.Diagnostics, src vase.Source, werror bool) bool {
	if werror {
		findings = findings.Promote()
	}
	shown := findings.Filter(vase.SeverityWarning)
	if len(shown) > 0 {
		fmt.Fprint(os.Stderr, vase.RenderDiagnostics(shown, src))
	}
	return !shown.HasErrors()
}

// FailSource renders an error raised against a known source — diagnostics
// with source excerpts and caret markers, every finding in deterministic
// order — and exits with exitcode.Error.
func FailSource(err error, src vase.Source) {
	fmt.Fprintln(os.Stderr, vase.RenderDiagnostics(err, src))
	os.Exit(exitcode.Error)
}
