package report

import (
	"os"
	"path/filepath"
	"testing"
)

// checkGolden compares got against the checked-in golden, regenerating it
// when REPORT_UPDATE is set:
//
//	REPORT_UPDATE=1 go test -run TestGolden ./internal/report
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("REPORT_UPDATE") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with REPORT_UPDATE=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden (got %d bytes, want %d); rerun with REPORT_UPDATE=1 if intentional",
			name, len(got), len(want))
	}
}

// TestGoldenFigureSVG pins the delay-figure rendering byte for byte.
func TestGoldenFigureSVG(t *testing.T) {
	checkGolden(t, "figure.svg", sample().SVG(400, 300))
}
