package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestProtocolsRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"NET1     successor sets identical across protocols: OK",
		"CAIRN    successor sets identical across protocols: OK",
		"same loop-free multipath routes; different state/message trade-offs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}
