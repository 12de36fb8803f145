package main

import (
	"bytes"
	"strings"
	"testing"

	"minroute/internal/lint"
)

// TestList: -list prints every analyzer of both suites under its
// category's heading.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, cat := range lint.Categories() {
		if !strings.Contains(out, cat+" checks:\n") {
			t.Errorf("-list has no %s heading\n%s", cat, out)
		}
	}
	for _, a := range lint.All {
		if !strings.Contains(out, "  "+a.Name+" ") {
			t.Errorf("-list misses %s\n%s", a.Name, out)
		}
	}
}

// TestUnknownCheckIsUsageError: a check name that does not exist exits 2
// before anything is loaded.
func TestUnknownCheckIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-checks", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2\n%s", code, stderr.String())
	}
}

// TestCleanPackage runs the whole suite over one clean package: exit 0,
// no findings, and -json prints an empty array.
func TestCleanPackage(t *testing.T) {
	const pkg = "minroute/internal/numeric"
	var stdout, stderr bytes.Buffer
	if code := run([]string{pkg}, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, output %q\n%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-json", pkg}, &stdout, &stderr); code != 0 || stdout.String() != "[]\n" {
		t.Errorf("-json: exit %d, output %q\n%s", code, stdout.String(), stderr.String())
	}
}
