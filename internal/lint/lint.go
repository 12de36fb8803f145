// Package lint is a from-scratch static-analysis driver for this
// repository, built only on the standard library's go/parser, go/ast, and
// go/types (the repo takes no external dependencies, including x/tools).
//
// It keeps the four checks whose defects, when planted, escaped every
// runtime gate (DESIGN.md §9 and §13). maporder and nowall guard the
// promise behind byte-identical figures at any worker count, that every
// simulation is a pure function of its seed, and its live counterpart:
// a map walk whose effect depends on visit order, such as a float sum, can
// differ run to run in bits that no pinned output prints, and a wall-clock
// read in the live runtime's session code reaches no pinned output at all.
// handlecopy guards the pooled DES records: a packet built by value runs
// bit-identically while the pool grows by one record per delivery.
// lockorder guards the live stack's lock order, which no test run can be
// relied on to exercise. The other conventions once checked here (ambient
// entropy, timers in simulation code, float equality, enum switches,
// telemetry attribute keys) are enforced by runtime gates — the goldens
// and the packages' own tests — so their analyzers were deleted.
//
// Suppressions are per-line annotations with a mandatory reason:
//
//	//lint:maporder-ok keys are collected and sorted before use
//
// placed on the offending line or the line directly above it. An annotation
// without a reason is itself a diagnostic: the point of the suite is that
// every deliberate exception is explained in-tree.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diag is one finding.
type Diag struct {
	Pos   token.Position
	Check string
	Msg   string
	// always: no annotation suppresses it.
	always bool
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Msg)
}

// Analyzer is one check. Run inspects the package via the Pass and reports
// findings with Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	// Category groups the check for display: "determinism" (map iteration
	// order, wall-clock reads and pooled-record ownership) or "concurrency"
	// (lock order): the defects of each kind the runtime gates cannot be
	// relied on to hit.
	Category string
	Run      func(*Pass)
}

// Analyzer categories, in display order: the determinism suite guards the
// repo's core guarantee against map iteration order, which the goldens see
// only when it moves a printed digit, and against wall-clock reads in the
// live runtime and breaches of the DES pools' ownership, which they do not
// see at all; the concurrency suite guards the live stack's lock order,
// which -race, leaktest and race-soak (DESIGN.md §13) do not.
const (
	CategoryDeterminism = "determinism"
	CategoryConcurrency = "concurrency"
)

// Categories returns the analyzer categories in display order.
func Categories() []string {
	return []string{CategoryDeterminism, CategoryConcurrency}
}

// All lists every analyzer in the suite, sorted by name.
var All = []*Analyzer{HandleCopy, LockOrder, MapOrder, NoWall}

// ByName returns the analyzers matching the comma-separated list, or All
// for an empty list.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" {
		return All, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range All {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown check %q", name)
		}
	}
	return out, nil
}

// Pass carries one package through one analyzer.
type Pass struct {
	*Package
	check string
	diags *[]Diag
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diag{
		Pos:   p.Fset.Position(pos),
		Check: p.check,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// reportAlways records a finding at pos that no annotation suppresses.
func (p *Pass) reportAlways(pos token.Pos, format string, args ...any) {
	p.Reportf(pos, format, args...)
	(*p.diags)[len(*p.diags)-1].always = true
}

// RunPackage runs the analyzers over pkg, applies suppression annotations,
// appends annotation-hygiene diagnostics (missing reason, unknown check),
// and returns the surviving findings sorted by position. A nil pkg (a
// listed package with no lintable files) yields nil.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diag {
	if pkg == nil {
		return nil
	}
	var diags []Diag
	for _, a := range analyzers {
		a.Run(&Pass{Package: pkg, check: a.Name, diags: &diags})
	}
	sup := collectSuppressions(pkg)
	diags = sup.filter(diags)
	diags = append(diags, sup.hygiene()...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// isModulePath reports whether path belongs to this module.
func isModulePath(path string) bool {
	return path == "minroute" || strings.HasPrefix(path, "minroute/")
}
