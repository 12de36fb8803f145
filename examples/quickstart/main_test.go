package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuickstartRuns(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MP (multipath minimum-delay approximation) on NET1:",
		"loss rate: 0.00000", "loop-freedom audit: OK", " 0 with node revisits",
		"10 of 10 flows used two or more distinct paths"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q\n%s", want, out.String())
		}
	}
}
