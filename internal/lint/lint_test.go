package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The loader lists and type-checks against the real module, so build it
// once: `go list -export` dominates the cost.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		// The test runs with cwd internal/lint; the module root is two up.
		loaderVal, loaderErr = NewLoader(filepath.Join("..", ".."), "./...")
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loaderVal
}

// want is one expectation parsed from a fixture comment. The forms
//
//	code // want `regex`
//	// want:-1 `regex`   (expectation for the line above, used when the
//	                      diagnosed line is itself a comment)
//
// bind a message regex to a file:line. The golden contract: every want
// must be matched by a diagnostic on its line and every diagnostic must be
// matched by a want — so each fixture fails without its analyzer and
// passes with it.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile("// want(:[+-]?\\d+)? `([^`]+)`")

func parseWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := pos.Line
				if m[1] != "" {
					var off int
					fmt.Sscanf(m[1], ":%d", &off)
					line += off
				}
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s: bad want regex: %v", pos, err)
				}
				wants = append(wants, &want{file: pos.Filename, line: line, re: re})
			}
		}
	}
	return wants
}

// runFixture loads testdata/<name> under a synthetic minroute import path
// (so path-scoped analyzer policies apply) and checks its diagnostics
// against the // want expectations.
func runFixture(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	pkg, err := testLoader(t).CheckDir("minroute/internal/fixture/"+name, filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	diags := RunPackage(pkg, analyzers)
	wants := parseWants(t, pkg)

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Msg) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestMapOrderFixture(t *testing.T)   { runFixture(t, "maporder", MapOrder) }
func TestNoRandFixture(t *testing.T)     { runFixture(t, "norand", NoRand) }
func TestNoWallFixture(t *testing.T)     { runFixture(t, "nowall", NoWall) }
func TestFloatEqFixture(t *testing.T)    { runFixture(t, "floateq", FloatEq) }
func TestHandleCopyFixture(t *testing.T) { runFixture(t, "handlecopy", HandleCopy) }
func TestExhaustiveFixture(t *testing.T) { runFixture(t, "exhaustive", Exhaustive) }
func TestTelemetryAttrFixture(t *testing.T) {
	runFixture(t, "telemetryattr", TelemetryAttr)
}
func TestLockOrderFixture(t *testing.T) { runFixture(t, "lockorder", LockOrder) }

// TestFixturesFailWithoutAnalyzer is the other half of the golden
// contract: with the analyzer disabled, the fixtures' want expectations
// must go unmatched. Guards against an analyzer that silently reports
// nothing (and a harness that silently accepts that).
func TestFixturesFailWithoutAnalyzer(t *testing.T) {
	for _, name := range []string{
		"maporder", "norand", "nowall", "floateq", "handlecopy", "exhaustive", "telemetryattr",
		"lockorder",
	} {
		pkg, err := testLoader(t).CheckDir("minroute/internal/fixture/"+name, filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		diags := RunPackage(pkg, nil) // suppression hygiene only
		wants := parseWants(t, pkg)
		unmatched := 0
		for _, w := range wants {
			hit := false
			for _, d := range diags {
				if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Msg) {
					hit = true
				}
			}
			if !hit {
				unmatched++
			}
		}
		if unmatched == 0 {
			t.Errorf("%s: every want still matched with the analyzer disabled; the fixture tests nothing", name)
		}
	}
}

// TestRepoIsClean runs the full suite over the whole module — the same
// invocation as `make lint` — and requires zero findings. This keeps the
// commit gate's guarantee checkable from `go test ./...` alone.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint skipped in -short mode")
	}
	l := testLoader(t)
	for _, path := range l.Targets() {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range RunPackage(pkg, All) {
			t.Errorf("%s", d)
		}
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want all %d", len(all), err, len(All))
	}
	two, err := ByName("maporder, floateq")
	if err != nil || len(two) != 2 || two[0].Name != "maporder" || two[1].Name != "floateq" {
		t.Fatalf("ByName(maporder, floateq) = %v, err %v", two, err)
	}
	if _, err := ByName("nosuchcheck"); err == nil || !strings.Contains(err.Error(), "nosuchcheck") {
		t.Fatalf("ByName(nosuchcheck) err = %v; want unknown-check error", err)
	}
}

// TestSuppressionRequiresReason pins the suppression policy at the API
// level: a reasonless annotation both fails to suppress and is reported.
func TestSuppressionRequiresReason(t *testing.T) {
	pkg, err := testLoader(t).CheckDir("minroute/internal/fixture/maporder", filepath.Join("testdata", "maporder"))
	if err != nil {
		t.Fatal(err)
	}
	diags := RunPackage(pkg, []*Analyzer{MapOrder})
	var reasonless, unknown bool
	for _, d := range diags {
		if d.Check == "suppression" && strings.Contains(d.Msg, "no reason") {
			reasonless = true
		}
		if d.Check == "suppression" && strings.Contains(d.Msg, "unknown check") {
			unknown = true
		}
	}
	if !reasonless {
		t.Error("reasonless //lint:maporder-ok was not reported")
	}
	if !unknown {
		t.Error("//lint:bogus-ok with an unknown check name was not reported")
	}
}
