package kalman

import (
	"math"
	"testing"

	"roadgrade/internal/mat"
)

func gatedTestFilter(t *testing.T) *Filter {
	t.Helper()
	f, err := NewFilter(constVelModel(0.1),
		[]float64{0, 0},
		mat.Diag(1, 1),
		mat.Diag(1e-4, 1e-4),
		mat.Diag(0.25),
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestUpdateGatedAcceptsConsistentMeasurement(t *testing.T) {
	f := gatedTestFilter(t)
	f.Predict()
	innov, accepted, err := f.UpdateGated([]float64{0.1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !accepted {
		t.Fatal("small innovation rejected")
	}
	if len(innov) != 1 || math.Abs(innov[0]-0.1) > 1e-9 {
		t.Errorf("innovation = %v, want [0.1]", innov)
	}
	if math.Abs(f.StateAt(0)) < 1e-12 {
		t.Error("accepted update did not move the state")
	}
}

func TestUpdateGatedRejectsOutlier(t *testing.T) {
	f := gatedTestFilter(t)
	f.Predict()
	before := []float64{f.StateAt(0), f.StateAt(1)}
	// S = P + R ≈ 1.25; a 100-unit innovation has NIS ≈ 8000 >> gate 9.
	innov, accepted, err := f.UpdateGated([]float64{100}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if accepted {
		t.Fatal("outlier passed the NIS gate")
	}
	if innov == nil {
		t.Error("rejected update should still report the innovation")
	}
	if f.StateAt(0) != before[0] || f.StateAt(1) != before[1] {
		t.Error("rejected update modified the state")
	}
}

func TestUpdateGatedZeroGateDisables(t *testing.T) {
	f := gatedTestFilter(t)
	f.Predict()
	_, accepted, err := f.UpdateGated([]float64{100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !accepted {
		t.Error("gate 0 must accept everything (gating disabled)")
	}
}

func TestUpdateGatedNonFiniteMeasurement(t *testing.T) {
	f := gatedTestFilter(t)
	f.Predict()
	before := []float64{f.StateAt(0), f.StateAt(1)}
	for _, z := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		innov, accepted, err := f.UpdateGated([]float64{z}, 9)
		if err != nil {
			t.Fatalf("non-finite z must not error, got %v", err)
		}
		if accepted || innov != nil {
			t.Errorf("non-finite z=%v was accepted", z)
		}
	}
	if f.StateAt(0) != before[0] || f.StateAt(1) != before[1] {
		t.Error("non-finite measurement modified the state")
	}
	if _, _, err := f.UpdateGated([]float64{1, 2}, 9); err == nil {
		t.Error("wrong measurement dimension should error")
	}
}

func TestHealthy(t *testing.T) {
	f := gatedTestFilter(t)
	if !f.Healthy() {
		t.Fatal("fresh filter reported unhealthy")
	}
	f.x[0] = math.NaN()
	if f.Healthy() {
		t.Error("NaN state reported healthy")
	}
	f.x[0] = 0
	f.p[0][1] = math.Inf(1)
	if f.Healthy() {
		t.Error("Inf covariance reported healthy")
	}
}
