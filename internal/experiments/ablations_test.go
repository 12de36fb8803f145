package experiments

import (
	"slices"
	"strings"
	"testing"

	"minroute/internal/topo"
)

func TestAblationAHDampedBeatsLiteral(t *testing.T) {
	fig := quickFigure(t, "abl-ah")
	damped, literal := fig.ColumnMean(0), fig.ColumnMean(1)
	if !(damped < literal) {
		t.Fatalf("damped AH %v not better than literal %v", damped, literal)
	}
	// AH must also beat no AH at all (its reason to exist).
	off := fig.ColumnMean(2)
	if !(damped < off) {
		t.Fatalf("damped AH %v not better than AH-off %v", damped, off)
	}
}

func TestAblationEstimatorComparable(t *testing.T) {
	fig := quickFigure(t, "abl-est")
	closed, online := fig.ColumnMean(0), fig.ColumnMean(1)
	if online > closed*2 {
		t.Fatalf("online estimator %v not comparable to closed form %v", online, closed)
	}
}

func TestLoadSweepCrossover(t *testing.T) {
	fig := quickFigure(t, "loadsweep")
	// Light load: MP within 25% of SP (no advantage, per the paper).
	lightMP, lightSP := fig.Data[0][0], fig.Data[0][1]
	if lightMP > lightSP*1.25 {
		t.Fatalf("light load: MP %v much worse than SP %v", lightMP, lightSP)
	}
	// Heavy load: SP at least 3x MP.
	heavyMP, heavySP := fig.Data[len(fig.Data)-1][0], fig.Data[len(fig.Data)-1][1]
	if !(heavySP > heavyMP*3) {
		t.Fatalf("heavy load: SP %v not >> MP %v", heavySP, heavyMP)
	}
}

func TestConnectivitySweepShape(t *testing.T) {
	fig := quickFigure(t, "connsweep")
	// Tree-like connectivity: no alternate paths, so MP and SP coincide.
	treeMP, treeSP := fig.Data[0][0], fig.Data[0][1]
	if relChange(treeMP, treeSP) > 0.02 {
		t.Fatalf("tree connectivity: MP %v != SP %v", treeMP, treeSP)
	}
	// Richer connectivity: MP at or below SP on every row.
	for r := 1; r < len(fig.Data); r++ {
		if fig.Data[r][0] > fig.Data[r][1]*1.02 {
			t.Fatalf("row %d: MP %v worse than SP %v", r, fig.Data[r][0], fig.Data[r][1])
		}
	}
	// Average degree must actually grow down the rows.
	for r := 1; r < len(fig.Data); r++ {
		if fig.Data[r][2] <= fig.Data[r-1][2] {
			t.Fatalf("avg degree not increasing at row %d", r)
		}
	}
}

func TestJitterMPSmoother(t *testing.T) {
	fig := quickFigure(t, "jitter")
	mp, sp := fig.ColumnMean(0), fig.ColumnMean(1)
	if !(mp < sp) {
		t.Fatalf("MP jitter %v not below SP jitter %v", mp, sp)
	}
}

func TestOverheadTradeoffShape(t *testing.T) {
	fig := quickFigure(t, "overhead")
	// Delay stays in the same regime across the whole Tl range...
	d5, d40 := fig.Data[0][0], fig.Data[len(fig.Data)-1][0]
	if d40 > d5*1.5 {
		t.Fatalf("MP delay degraded badly with Tl: %v -> %v", d5, d40)
	}
	// ...while control bandwidth falls monotonically and substantially.
	for r := 1; r < len(fig.Data); r++ {
		if fig.Data[r][2] >= fig.Data[r-1][2] {
			t.Fatalf("control bandwidth not decreasing at row %d", r)
		}
	}
	if fig.Data[len(fig.Data)-1][2] > fig.Data[0][2]/4 {
		t.Fatalf("Tl=40 overhead %v not well below Tl=5 overhead %v",
			fig.Data[len(fig.Data)-1][2], fig.Data[0][2])
	}
}

func TestCustomComparison(t *testing.T) {
	net, err := topo.Parse(strings.NewReader(`
link a b 10Mbps 0.5ms
link b c 10Mbps 0.5ms
link a d 10Mbps 0.5ms
link d c 10Mbps 0.5ms
flow a c 8Mbps
`))
	if err != nil {
		t.Fatal(err)
	}
	fig, err := CustomComparison(net, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fig.Columns, []string{"OPT", "MP-TL-10-TS-2", "SP-TL-10"}) {
		t.Fatalf("columns = %v, want OPT, MP and SP", fig.Columns)
	}
	opt, mp, sp := fig.Data[0][0], fig.Data[0][1], fig.Data[0][2]
	if !(mp < sp) || mp > opt*1.5 {
		t.Fatalf("diamond comparison off: opt=%v mp=%v sp=%v", opt, mp, sp)
	}
}
