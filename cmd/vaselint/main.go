// Command vaselint is the standalone synthesizability linter for VASS
// sources and serialized VHIF modules. It runs the full front end plus every
// registered analyzer and prints structured findings with source excerpts,
// or as JSON for tooling.
//
// Usage:
//
//	vaselint [-json] [-Werror] [-v] [-passes list] file.vhd dir/ ...
//	vaselint -list
//
// Directories are searched (non-recursively) for .vhd and .vhif files. Exit
// status follows the shared contract (internal/exitcode): 1 when any
// error-severity finding is reported — or any warning under -Werror — 2 for
// invocation problems (no lintable files, unreadable paths), 0 otherwise.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vase"
	"vase/internal/cliopt"
	"vase/internal/exitcode"
	"vase/internal/source"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	werror := flag.Bool("Werror", false, "treat warnings as errors")
	verbose := flag.Bool("v", false, "also print info-severity findings")
	passes := flag.String("passes", "", "comma-separated analyzer names (default: all)")
	list := flag.Bool("list", false, "list the registered analyzers and exit")
	flag.Parse()

	if *list {
		for _, p := range vase.LintPasses() {
			fmt.Printf("%-12s %s\n", p.Name, p.Doc)
		}
		return
	}
	if flag.NArg() == 0 {
		usage(fmt.Errorf("usage: vaselint [flags] file.vhd dir/ ..."))
	}

	opts := vase.LintOptions{}
	if *passes != "" {
		opts.Passes = strings.Split(*passes, ",")
	}

	files, err := expandArgs(flag.Args())
	if err != nil {
		usage(err)
	}
	if len(files) == 0 {
		usage(fmt.Errorf("no .vhd or .vhif files among the arguments"))
	}

	exit := exitcode.OK
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			usage(err)
		}
		text := string(raw)
		var findings vase.Diagnostics
		var f *source.File
		if strings.HasSuffix(path, ".vhif") {
			findings, err = vase.LintVHIF(context.Background(), nil, path, text, opts)
		} else {
			findings, err = vase.Lint(context.Background(), nil, vase.Source{Name: path, Text: text}, opts)
			f = source.NewFile(path, text)
		}
		if err != nil {
			// A failing lint still renders its diagnostics with excerpts and
			// carets, not the capped one-line summary.
			cliopt.FailSource(err, vase.Source{Name: path, Text: text})
		}
		if *werror {
			findings = findings.Promote()
		}
		min := vase.SeverityWarning
		if *verbose {
			min = vase.SeverityInfo
		}
		shown := findings.Filter(min)
		if *jsonOut {
			out, err := shown.JSON()
			if err != nil {
				fail(err)
			}
			os.Stdout.Write(out)
			fmt.Println()
		} else if len(shown) > 0 {
			fmt.Print(shown.Render(f))
		}
		if shown.HasErrors() {
			exit = exitcode.Error
		}
	}
	if exit != exitcode.OK {
		os.Exit(exit)
	}
}

// expandArgs resolves file and directory arguments to the lintable files.
func expandArgs(args []string) ([]string, error) {
	var out []string
	for _, a := range args {
		info, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, a)
			continue
		}
		entries, err := os.ReadDir(a)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			switch filepath.Ext(e.Name()) {
			case ".vhd", ".vhif":
				out = append(out, filepath.Join(a, e.Name()))
			}
		}
	}
	return out, nil
}

// fail reports an operational error (the lint ran and broke); usage reports
// an invocation problem. The distinct codes let scripts tell findings (1)
// from a mistyped command line (2).
func fail(err error) {
	exitcode.Fail("vaselint", exitcode.Error, err)
}

func usage(err error) {
	exitcode.Fail("vaselint", exitcode.Usage, err)
}
