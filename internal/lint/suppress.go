package lint

import (
	"go/token"
	"regexp"
	"strings"
)

// suppression is one parsed //lint:<check>-ok annotation.
type suppression struct {
	pos    token.Position
	check  string
	reason string
}

type suppressionSet struct {
	// byLine maps file:line to the suppressions that cover that line.
	byLine map[string][]*suppression
	all    []*suppression
}

// The check-name group admits hyphenated names, so a misspelt or deleted
// check's annotation is parsed and reported; greedy matching with
// backtracking still peels off the trailing "-ok".
var suppressionRE = regexp.MustCompile(`^//\s*lint:([a-z]+(?:-[a-z]+)*)-ok(.*)$`)

// collectSuppressions scans every comment in the package. An annotation
// covers the line it sits on and the line directly below it, so both the
// trailing-comment and the own-line styles work:
//
//	for k := range m { // lint:maporder-ok reason
//
//	//lint:maporder-ok reason
//	for k := range m {
func collectSuppressions(pkg *Package) *suppressionSet {
	set := &suppressionSet{byLine: make(map[string][]*suppression)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := suppressionRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				s := &suppression{
					pos:    pkg.Fset.Position(c.Pos()),
					check:  m[1],
					reason: strings.TrimSpace(m[2]),
				}
				set.all = append(set.all, s)
				for _, line := range []int{s.pos.Line, s.pos.Line + 1} {
					key := lineKey(s.pos.Filename, line)
					set.byLine[key] = append(set.byLine[key], s)
				}
			}
		}
	}
	return set
}

func lineKey(file string, line int) string {
	return file + ":" + itoa(line)
}

// itoa avoids importing strconv for a two-call helper.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// filter drops diagnostics covered by a matching, reasoned suppression.
// A reasonless annotation suppresses nothing: it will instead surface as a
// hygiene diagnostic, so a lazy `//lint:maporder-ok` cannot silence a check.
// Nor does any annotation silence a finding reported as always.
func (set *suppressionSet) filter(diags []Diag) []Diag {
	out := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, s := range set.byLine[lineKey(d.Pos.Filename, d.Pos.Line)] {
			if s.check == d.Check && s.reason != "" && !d.always {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}

// hygiene reports annotations that are themselves defective: a missing
// reason, or a check name the suite does not define. These diagnostics are
// not suppressible.
func (set *suppressionSet) hygiene() []Diag {
	known := make(map[string]bool, len(All))
	for _, a := range All {
		known[a.Name] = true
	}
	var out []Diag
	for _, s := range set.all {
		if !known[s.check] {
			out = append(out, Diag{Pos: s.pos, Check: "suppression",
				Msg: "annotation names unknown check " + s.check + "-ok"})
			continue
		}
		if s.reason == "" {
			out = append(out, Diag{Pos: s.pos, Check: "suppression",
				Msg: "suppression of " + s.check + " has no reason; write //lint:" + s.check + "-ok <why this is safe>"})
		}
	}
	return out
}
