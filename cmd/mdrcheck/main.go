// Command mdrcheck runs the repository's determinism and ownership lint
// suite (internal/lint) over Go packages. It is part of the commit gate:
// `make lint` runs it over ./... and any finding fails the build.
//
// Usage:
//
//	mdrcheck [-json] [-checks maporder,norand,...] [-list] [packages]
//
// With no packages, ./... is checked. -list prints the roster grouped by
// category: the determinism suite (seed-purity and ownership, DESIGN.md
// §9) and the concurrency suite (lock order, DESIGN.md §13). Exit status:
// 0 clean, 1 findings, 2 usage or load error (including packages that do
// not compile).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"minroute/internal/lint"
)

// jsonDiag is the -json wire form of one finding, stable for CI consumers.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdrcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	checks := fs.String("checks", "", "comma-separated checks to run (default: all)")
	list := fs.Bool("list", false, "list the available checks and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mdrcheck [-json] [-checks list] [packages]\n\n")
		printChecks(stderr, "  ")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		printChecks(stdout, "")
		return 0
	}

	analyzers, err := lint.ByName(*checks)
	if err != nil {
		fmt.Fprintln(stderr, "mdrcheck:", err)
		return 2
	}

	loader, err := lint.NewLoader(".", fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "mdrcheck:", err)
		return 2
	}

	var diags []lint.Diag
	for _, path := range loader.Targets() {
		pkg, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(stderr, "mdrcheck:", err)
			return 2
		}
		diags = append(diags, lint.RunPackage(pkg, analyzers)...)
	}

	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File: relPath(d.Pos.Filename), Line: d.Pos.Line, Column: d.Pos.Column,
				Check: d.Check, Message: d.Msg,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "mdrcheck:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Msg)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// printChecks writes the analyzer roster grouped by category, in the
// categories' display order (determinism first, then concurrency), so the
// help output mirrors the two suites documented in DESIGN.md §9 and §13.
// Only the first line of each Doc is shown; the full rationale lives in
// the analyzer source and DESIGN.md.
func printChecks(w io.Writer, indent string) {
	for _, cat := range lint.Categories() {
		fmt.Fprintf(w, "%s%s checks:\n", indent, cat)
		for _, a := range lint.All {
			if a.Category != cat {
				continue
			}
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(w, "%s  %-19s %s\n", indent, a.Name, doc)
		}
		fmt.Fprintln(w)
	}
}

// relPath shortens an absolute filename to be relative to the working
// directory when possible, keeping output stable across checkouts.
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	if rel, err := filepath.Rel(wd, name); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return name
}
