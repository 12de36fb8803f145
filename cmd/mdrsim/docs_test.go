package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docFiles are the documents whose quoted commands TestDocCommandsParse
// holds to the code, relative to the repository root; skillDocs adds the
// checked-in skill notes (the verify skill among them).
var (
	docFiles  = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "Makefile"}
	skillDocs = filepath.Join(".*", "skills", "*", "SKILL.md")
)

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// mdrsimCall matches an mdrsim invocation — bare, as ./cmd/mdrsim after
	// `go run`, or as a built binary — and captures what follows it.
	mdrsimCall = regexp.MustCompile(`(?:^|[\s/])mdrsim(\s.*)?$`)
	entryPath  = regexp.MustCompile(`\./(cmd|examples)/([A-Za-z0-9_-]+)`)
)

// quoted returns the command-like snippets of a document: every line of a
// Makefile; for Markdown, every line of a fenced block and every inline
// code span, a span broken across lines joined into one.
func quoted(name, text string) []string {
	if filepath.Base(name) == "Makefile" {
		return strings.Split(text, "\n")
	}
	var snippets []string
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			snippets = append(snippets, line)
		} else {
			prose.WriteString(line + "\n")
		}
	}
	for _, m := range codeSpan.FindAllStringSubmatch(prose.String(), -1) {
		snippets = append(snippets, strings.ReplaceAll(m[1], "\n", " "))
	}
	return snippets
}

// mdrsimArgs returns the arguments of the mdrsim command in snippet — the
// words after the command up to a comment, pipe, list operator or
// redirect — and whether the snippet holds such a command at all. Prose
// that names the binary without flags is not a command.
func mdrsimArgs(snippet string) ([]string, bool) {
	m := mdrsimCall.FindStringSubmatch(snippet)
	if m == nil {
		return nil, false
	}
	var args []string
	for _, w := range strings.Fields(m[1]) {
		if strings.HasPrefix(w, "#") || strings.HasPrefix(w, ">") || strings.HasPrefix(w, "2>") ||
			w == "|" || w == "||" || w == "&&" || w == ";" {
			break
		}
		args = append(args, w)
	}
	if len(args) == 0 || !strings.HasPrefix(args[0], "-") {
		return nil, false
	}
	return args, true
}

// TestDocCommandsParse holds the documents to the command line: every
// mdrsim command they quote parses with run's flag set and names at most
// one mode, and every ./cmd/<x> and ./examples/<x> they name exists. A
// renamed or removed flag, or a deleted binary, fails here. Nothing runs.
func TestDocCommandsParse(t *testing.T) {
	root := filepath.Join("..", "..")
	skills, err := filepath.Glob(filepath.Join(root, skillDocs))
	if err != nil || len(skills) == 0 {
		t.Fatalf("no skill notes match %s (%v)", skillDocs, err)
	}
	names := slices.Clone(docFiles)
	for _, path := range skills {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, rel)
	}
	commands := 0
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, snippet := range quoted(name, text) {
			args, ok := mdrsimArgs(snippet)
			if !ok {
				continue
			}
			commands++
			fs, o := newFlags(io.Discard)
			// Prose names a mode by its flag alone (`mdrsim -fuzz`): a last
			// word that is a value flag without its value still has to exist.
			if f := fs.Lookup(strings.TrimLeft(args[len(args)-1], "-")); f != nil {
				if b, ok := f.Value.(interface{ IsBoolFlag() bool }); !ok || !b.IsBoolFlag() {
					args = args[:len(args)-1]
				}
			}
			if err := fs.Parse(args); err != nil {
				t.Errorf("%s: %q: %v", name, snippet, err)
				continue
			}
			if fs.NArg() > 0 {
				t.Errorf("%s: %q: stray arguments %q", name, snippet, fs.Args())
			}
			if _, err := o.selectMode(); err != nil {
				t.Errorf("%s: %q: %v", name, snippet, err)
			}
		}
		for _, m := range entryPath.FindAllStringSubmatch(text, -1) {
			if st, err := os.Stat(filepath.Join(root, m[1], m[2])); err != nil || !st.IsDir() {
				t.Errorf("%s names %s, which does not exist", name, m[0])
			}
		}
	}
	if commands < 20 {
		t.Errorf("found only %d mdrsim commands in %v; is the extraction broken?", commands, names)
	}
}
