package experiments

import (
	"math"
	"testing"
)

// The tests below assert the *shape* of each figure — who wins and by
// roughly what factor — which is what the reproduction must preserve.
// Quick settings are used, read from the cache TestQuickFiguresPinned
// shares; Full sharpens the numbers but not the ordering. Like the pin,
// they skip under the race detector.

func TestFig9ShapeMPTracksOPT(t *testing.T) {
	if testing.Short() {
		t.Skip("CAIRN figure is slow")
	}
	fig := quickFigure(t, "fig9")
	if len(fig.Columns) != 3 || fig.Columns[1] != "OPT+5%" {
		t.Fatalf("columns = %v", fig.Columns)
	}
	opt, mp := fig.ColumnMean(0), fig.ColumnMean(2)
	if !(mp >= opt*0.95) {
		t.Fatalf("MP mean %v below OPT mean %v: measurement suspect", mp, opt)
	}
	// Paper: within a small percentage. Allow slack at Quick settings.
	if mp > opt*1.35 {
		t.Fatalf("MP mean %v not comparable to OPT mean %v", mp, opt)
	}
}

func TestFig10ShapeMPTracksOPT(t *testing.T) {
	fig := quickFigure(t, "fig10")
	opt, mp := fig.ColumnMean(0), fig.ColumnMean(2)
	if mp > opt*1.35 {
		t.Fatalf("NET1 MP mean %v not comparable to OPT mean %v", mp, opt)
	}
}

func TestFig11ShapeSPWorseThanMP(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("CAIRN figure is slow")
	}
	set := Quick
	set.Runs = 2 // SP is bimodal per seed in the loaded regime; average
	fig, err := Fig11(set)
	if err != nil {
		t.Fatal(err)
	}
	// Columns: OPT, MP-TL-10-TS-10, MP-TL-10-TS-2, SP-TL-10.
	mp2, sp := fig.ColumnMean(2), fig.ColumnMean(3)
	if !(sp > mp2*1.3) {
		t.Fatalf("SP mean %v not clearly worse than MP mean %v", sp, mp2)
	}
	// Paper: SP is 2-4x MP on some flows.
	if r := fig.MaxRatio(3, 2); r < 1.5 {
		t.Fatalf("max per-flow SP/MP ratio %v too small", r)
	}
}

func TestFig12ShapeSPMuchWorseOnNET1(t *testing.T) {
	fig := quickFigure(t, "fig12")
	mp2, sp := fig.ColumnMean(2), fig.ColumnMean(3)
	if !(sp > mp2*2) {
		t.Fatalf("NET1 SP mean %v not >> MP mean %v", sp, mp2)
	}
	// Higher connectivity -> bigger MP advantage than CAIRN (paper: 5-6x).
	if r := fig.MaxRatio(3, 2); r < 3 {
		t.Fatalf("max per-flow SP/MP ratio %v below the paper's regime", r)
	}
}

func TestFig13ShapeTlSensitivityCAIRN(t *testing.T) {
	if testing.Short() {
		t.Skip("CAIRN figure is slow")
	}
	fig := quickFigure(t, "fig13")
	// Columns: MP-TL-10, MP-TL-20, SP-TL-10, SP-TL-20.
	mp10, mp20 := fig.ColumnMean(0), fig.ColumnMean(1)
	sp10, sp20 := fig.ColumnMean(2), fig.ColumnMean(3)
	if !(sp20 > sp10*1.1) {
		t.Fatalf("SP not hurt by longer Tl: %v -> %v", sp10, sp20)
	}
	if relChange(mp10, mp20) > 0.5 {
		t.Fatalf("MP too sensitive to Tl: %v -> %v", mp10, mp20)
	}
	if !(mp10 < sp10 && mp20 < sp20) {
		t.Fatalf("MP not better than SP at both Tl: mp=%v,%v sp=%v,%v", mp10, mp20, sp10, sp20)
	}
}

func TestFig14ShapeTlSensitivityNET1(t *testing.T) {
	fig := quickFigure(t, "fig14")
	mp10, mp20 := fig.ColumnMean(0), fig.ColumnMean(1)
	sp10, sp20 := fig.ColumnMean(2), fig.ColumnMean(3)
	if relChange(mp10, mp20) > 0.5 {
		t.Fatalf("MP too sensitive to Tl: %v -> %v", mp10, mp20)
	}
	if !(mp10 < sp10 && mp20 < sp20) {
		t.Fatalf("MP not better than SP at both Tl: mp=%v,%v sp=%v,%v", mp10, mp20, sp10, sp20)
	}
}

func TestFig15ShapeDynamicCAIRN(t *testing.T) {
	if testing.Short() {
		t.Skip("CAIRN figure is slow")
	}
	fig := quickFigure(t, "fig15")
	mp, sp := fig.ColumnMean(0), fig.ColumnMean(1)
	if !(mp < sp) {
		t.Fatalf("MP %v not better than SP %v under bursty traffic", mp, sp)
	}
}

func TestFig16ShapeDynamicNET1(t *testing.T) {
	fig := quickFigure(t, "fig16")
	mp, sp := fig.ColumnMean(0), fig.ColumnMean(1)
	if !(mp < sp) {
		t.Fatalf("MP %v not better than SP %v under bursty traffic", mp, sp)
	}
}

func TestAllRegistryComplete(t *testing.T) {
	if len(All) != len(IDs) {
		t.Fatalf("registry has %d entries, IDs %d", len(All), len(IDs))
	}
	for _, id := range IDs {
		if All[id] == nil {
			t.Fatalf("missing generator for %s", id)
		}
	}
}

func relChange(a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	return math.Abs(b-a) / a
}
