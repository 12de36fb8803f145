package leaktest

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestGoroutineOwnersArmed pins the reach of the runtime concurrency
// gates: every internal package whose non-test code holds a go statement
// is repeated by `make race-soak` and arms leaktest in its tests. A test
// helper package with no tests of its own counts as armed when its
// exported suite arms leaktest itself.
func TestGoroutineOwnersArmed(t *testing.T) {
	root := filepath.Join("..", "..")
	soak := raceSoakPackages(t, filepath.Join(root, "Makefile"))
	var owners []string
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		spawns, armed, err := scanPackage(path)
		if err != nil || !spawns {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		owners = append(owners, pkg)
		if !slices.ContainsFunc(soak, func(pat string) bool { return matchPackage(pat, pkg) }) {
			t.Errorf("%s starts goroutines but is not in race-soak's package list %v", pkg, soak)
		}
		if !armed {
			t.Errorf("%s starts goroutines but its tests never call leaktest.Check", pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(owners) == 0 {
		t.Fatal("found no package with a go statement; the scan is broken")
	}
	t.Logf("goroutine-owning packages: %v", owners)
}

// scanPackage parses the Go files of one directory and reports whether
// its non-test code holds a go statement, and whether leaktest.Check is
// called from its test files — or, when it has none, from its own code.
func scanPackage(dir string) (spawns, armed bool, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, false, err
	}
	var armedInTests, armedInCode, hasTests bool
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return false, false, err
		}
		isTest := strings.HasSuffix(name, "_test.go")
		hasTests = hasTests || isTest
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				spawns = spawns || !isTest
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "leaktest" && n.Sel.Name == "Check" {
					if isTest {
						armedInTests = true
					} else {
						armedInCode = true
					}
				}
			}
			return true
		})
	}
	if hasTests {
		return spawns, armedInTests, nil
	}
	return spawns, armedInCode, nil
}

// raceSoakPackages returns the package arguments of the Makefile's
// race-soak recipe, as module-relative paths ("internal/node",
// "internal/transport/...").
func raceSoakPackages(t *testing.T, makefile string) []string {
	t.Helper()
	f, err := os.Open(makefile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var pkgs []string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "race-soak:") {
			in = true
			continue
		}
		if !in {
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			break
		}
		for _, field := range strings.Fields(line) {
			if p, ok := strings.CutPrefix(field, "./"); ok {
				pkgs = append(pkgs, p)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("Makefile has no race-soak recipe naming ./ packages")
	}
	return pkgs
}

// matchPackage reports whether a go-test package pattern names pkg: the
// path itself, or, for "dir/...", dir and everything under it.
func matchPackage(pattern, pkg string) bool {
	if dir, ok := strings.CutSuffix(pattern, "/..."); ok {
		return pkg == dir || strings.HasPrefix(pkg, dir+"/")
	}
	return pattern == pkg
}
