package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestFailoverRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"loop-freedom audit after warmup:",
		"loop-freedom audit right after failure:",
		"loop-freedom audit after reconvergence:",
		"loop-freedom audit after recovery:",
		"the failure cost capacity, never correctness",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}
