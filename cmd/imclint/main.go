// Command imclint runs the testbed's determinism analyzers (maprange,
// nilguard, nondetflow, sharedmut, stalewaiver — see internal/lint)
// over Go packages. What `make lint` runs:
//
//	imclint ./...
//
// prints findings as file:line:col: analyzer: message and exits 2 when
// there are any, so CI fails on the first order-dependent map walk or
// wall-clock read that sneaks into modelled code. With -json the report
// is a sorted JSON array instead (stable byte-for-byte across runs);
// -o FILE writes the report to FILE — findings still echo to stdout so
// a failing CI log shows them inline. Packages are analyzed in
// dependency order against one in-process fact store, so nondetflow's
// cross-package taint reaches every importer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"github.com/imcstudy/imcstudy/internal/lint"
	"github.com/imcstudy/imcstudy/internal/lint/analysis"
	"github.com/imcstudy/imcstudy/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// jsonFinding is the -json wire form of one diagnostic. Paths are
// cwd-relative when possible so reports are comparable across checkouts.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run loads the given package patterns (default ./...) and applies the
// suite.
func run(args []string) int {
	fs := flag.NewFlagSet("imclint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a sorted JSON array")
	outFile := fs.String("o", "", "write the report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ld, err := load.New(".", fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs, err := ld.Targets()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cwd, _ := os.Getwd()
	var report strings.Builder
	if *jsonOut {
		findings := make([]jsonFinding, 0, len(diags)) // non-nil: clean trees encode as []
		for _, d := range diags {
			p := ld.Fset().Position(d.Pos)
			findings = append(findings, jsonFinding{
				File:     relPath(cwd, p.Filename),
				Line:     p.Line,
				Col:      p.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc, err := json.MarshalIndent(findings, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "imclint:", err)
			return 1
		}
		report.Write(enc)
		report.WriteByte('\n')
	} else {
		for _, d := range diags {
			report.WriteString(format(ld.Fset(), cwd, d))
			report.WriteByte('\n')
		}
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, []byte(report.String()), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "imclint:", err)
			return 1
		}
		// The report went to a file; still surface findings in the log.
		for _, d := range diags {
			fmt.Println(format(ld.Fset(), cwd, d))
		}
	} else {
		os.Stdout.WriteString(report.String())
	}
	if len(diags) == 0 {
		return 0
	}
	return 2
}

// relPath shortens name relative to base when that stays inside base.
func relPath(base, name string) string {
	if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// format renders one diagnostic, with paths relative to base when that
// is shorter.
func format(fset *token.FileSet, base string, d analysis.Diagnostic) string {
	p := fset.Position(d.Pos)
	return fmt.Sprintf("%s:%d:%d: %s: %s", relPath(base, p.Filename), p.Line, p.Column, d.Analyzer, d.Message)
}
