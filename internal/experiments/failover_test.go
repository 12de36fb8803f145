package experiments

import "testing"

func TestFailoverShape(t *testing.T) {
	fig := quickFigure(t, "failover")
	// Rows: baseline, failed, recovered. Columns: MP, SP.
	baseMP, baseSP := fig.Data[0][0], fig.Data[0][1]
	failMP, failSP := fig.Data[1][0], fig.Data[1][1]
	recMP := fig.Data[2][0]
	if !(baseMP < baseSP) {
		t.Fatalf("baseline: MP %v not better than SP %v", baseMP, baseSP)
	}
	if !(failMP < failSP) {
		t.Fatalf("during failure: MP %v not better than SP %v", failMP, failSP)
	}
	// Failure costs capacity; MP delay rises but stays sane, and recovery
	// restores roughly the baseline.
	if failMP < baseMP*0.5 {
		t.Fatalf("failure implausibly improved MP: %v -> %v", baseMP, failMP)
	}
	if recMP > baseMP*3 {
		t.Fatalf("recovery did not restore MP: baseline %v, recovered %v", baseMP, recMP)
	}
}
