package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"minroute/internal/report"
)

var pinFile = filepath.Join("testdata", "quick_figures.sha256")

// quick holds every figure this process has generated at Quick, so the pin
// and the shape tests read one run of each. The figures are shared: callers
// must not modify them.
var quick struct {
	sync.Mutex
	figs map[string]*report.Figure
}

// quickFigure returns figure id at Quick, generating it on first use. It
// skips under the race detector: its callers check values, which the plain
// run checks, and every figure at Quick takes minutes raced.
func quickFigure(t *testing.T, id string) *report.Figure {
	t.Helper()
	if raceEnabled {
		t.Skip("checks values at Quick, which the run without -race covers")
	}
	quick.Lock()
	defer quick.Unlock()
	if fig := quick.figs[id]; fig != nil {
		return fig
	}
	fig, err := All[id](Quick)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if quick.figs == nil {
		quick.figs = map[string]*report.Figure{}
	}
	quick.figs[id] = fig
	return fig
}

// csvHash digests what a figure publishes the way the pin does.
func csvHash(fig *report.Figure) string {
	sum := sha256.Sum256([]byte(fig.CSV()))
	return hex.EncodeToString(sum[:])
}

// readPin returns the pinned CSV hash of every figure, by ID.
func readPin(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(pinFile)
	if err != nil {
		t.Fatalf("missing golden (run with FIGURES_UPDATE=1 to create): %v", err)
	}
	pin := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, hash, _ := strings.Cut(line, " ")
		pin[id] = hash
	}
	return pin
}

// TestQuickFiguresPinned holds every registered figure at Quick, seed 1, to
// the CSV it produced when testdata/quick_figures.sha256 was taken (one
// "id hash" line per figure, in IDs order): the byte gate a refactor of the
// runner, the router or anything under them answers to.
//
// Regenerate after an intentional behavioral change with:
//
//	FIGURES_UPDATE=1 go test -run TestQuickFiguresPinned ./internal/experiments
func TestQuickFiguresPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure at Quick")
	}
	if os.Getenv("FIGURES_UPDATE") != "" {
		var got strings.Builder
		for _, id := range IDs {
			fmt.Fprintf(&got, "%s %s\n", id, csvHash(quickFigure(t, id)))
		}
		if err := os.WriteFile(pinFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	pin := readPin(t)
	if len(pin) != len(IDs) {
		t.Fatalf("%d figures registered, golden %s pins %d; rerun with FIGURES_UPDATE=1 if intentional",
			len(IDs), pinFile, len(pin))
	}
	for _, id := range IDs {
		if got := csvHash(quickFigure(t, id)); got != pin[id] {
			t.Errorf("figure %s moved: CSV hash %s, golden has %s; rerun with FIGURES_UPDATE=1 if intentional",
				id, got, pin[id])
		}
	}
}

var artifactPinFile = filepath.Join("testdata", "fig14_artifacts.sha256")

// TestTelemetryArtifactsPinned holds the bytes of Quick fig14's telemetry
// export (seed 1, default ring capacity) to the hash they had when
// testdata/fig14_artifacts.sha256 was taken: one sha256 over every
// artifact's name and content, as TestFigureDeterminism takes it. The
// determinism table only compares exports with each other, so an encoder
// change that moves every artifact the same way would pass it; this pin
// does not.
//
// Regenerate after an intentional change to the artifacts with:
//
//	FIGURES_UPDATE=1 go test -run TestTelemetryArtifactsPinned ./internal/experiments
func TestTelemetryArtifactsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig14 at Quick")
	}
	if raceEnabled {
		t.Skip("fig14 at Quick takes minutes raced; the run without -race covers it")
	}
	set := Quick
	set.TelemetryDir = "export"
	got := generate(t, "fig14", set).artifacts
	if os.Getenv("FIGURES_UPDATE") != "" {
		if err := os.WriteFile(artifactPinFile, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(artifactPinFile)
	if err != nil {
		t.Fatalf("missing golden (run with FIGURES_UPDATE=1 to create): %v", err)
	}
	if want := strings.TrimSpace(string(data)); got != want {
		t.Errorf("fig14 telemetry artifacts moved: hash %s, golden has %s; rerun with FIGURES_UPDATE=1 if intentional", got, want)
	}
}
