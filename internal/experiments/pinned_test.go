package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickFiguresPinned holds every registered figure at Quick, seed 1, to
// the CSV it produced when testdata/quick_figures.sha256 was taken (one
// "id hash" line per figure, in IDs order): the byte gate a refactor of the
// runner, the router or anything under them answers to.
//
// Regenerate after an intentional behavioral change with:
//
//	FIGURES_UPDATE=1 go test -run TestQuickFiguresPinned ./internal/experiments
func TestQuickFiguresPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("every figure at Quick is too slow under the race detector")
	}
	if testing.Short() {
		t.Skip("runs every figure at Quick")
	}
	var got strings.Builder
	for _, id := range IDs {
		fig, err := All[id](Quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sum := sha256.Sum256([]byte(fig.CSV()))
		fmt.Fprintf(&got, "%s %s\n", id, hex.EncodeToString(sum[:]))
	}

	golden := filepath.Join("testdata", "quick_figures.sha256")
	if os.Getenv("FIGURES_UPDATE") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with FIGURES_UPDATE=1 to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d figures registered, golden %s pins %d; rerun with FIGURES_UPDATE=1 if intentional",
			len(gotLines), golden, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("figure moved: got %q, golden has %q; rerun with FIGURES_UPDATE=1 if intentional",
				gotLines[i], wantLines[i])
		}
	}
}
