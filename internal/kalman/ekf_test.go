package kalman

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadgrade/internal/mat"
)

// constVelModel is a linear constant-velocity model: state [pos, vel],
// measurement pos.
func constVelModel(dt float64) Model {
	return Model{
		StateDim: 2,
		MeasDim:  1,
		Predict: func(x [3]float64) ([3]float64, [3][3]float64) {
			return [3]float64{x[0] + dt*x[1], x[1]}, [3][3]float64{{1, dt}, {0, 1}}
		},
		Measure: func(x [3]float64) ([2]float64, [2][3]float64) {
			return [2]float64{x[0]}, [2][3]float64{{1, 0}}
		},
	}
}

func TestModelValidate(t *testing.T) {
	good := constVelModel(0.1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Model)
	}{
		{"state-dim", func(m *Model) { m.StateDim = 0 }},
		{"state-dim-max", func(m *Model) { m.StateDim = MaxState + 1 }},
		{"meas-dim", func(m *Model) { m.MeasDim = 0 }},
		{"meas-dim-max", func(m *Model) { m.MeasDim = MaxMeas + 1 }},
		{"predict", func(m *Model) { m.Predict = nil }},
		{"measure", func(m *Model) { m.Measure = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := constVelModel(0.1)
			tt.mutate(&m)
			if err := m.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestNewFilterValidation(t *testing.T) {
	m := constVelModel(0.1)
	p := mat.Diag(1, 1)
	q := mat.Diag(0.01, 0.01)
	r := mat.Diag(0.5)
	if _, err := NewFilter(m, []float64{0}, p, q, r); err == nil {
		t.Error("wrong x0 dim should error")
	}
	if _, err := NewFilter(m, []float64{0, 0}, mat.Diag(1, 1, 1), q, r); err == nil {
		t.Error("wrong p0 dim should error")
	}
	if _, err := NewFilter(m, []float64{0, 0}, p, mat.Diag(0.01, math.NaN()), r); err == nil {
		t.Error("non-finite q should error")
	}
	if _, err := NewFilter(m, []float64{0, 0}, p, q, mat.Diag(1, 1)); err == nil {
		t.Error("wrong r dim should error")
	}
	bad := m
	bad.Predict = nil
	if _, err := NewFilter(bad, []float64{0, 0}, p, q, r); err == nil {
		t.Error("invalid model should error")
	}
}

func TestFilterTracksConstantVelocity(t *testing.T) {
	const dt = 0.1
	m := constVelModel(dt)
	f, err := NewFilter(m,
		[]float64{0, 0},
		mat.Diag(10, 10),
		mat.Diag(1e-5, 1e-4),
		mat.Diag(0.25),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const trueVel = 3.0
	for i := 0; i < 600; i++ {
		truePos := trueVel * dt * float64(i)
		f.Predict()
		if _, err := f.Update([]float64{truePos + rng.NormFloat64()*0.5}); err != nil {
			t.Fatal(err)
		}
	}
	x := f.State()
	if math.Abs(x[1]-trueVel) > 0.1 {
		t.Errorf("velocity estimate %v, want ~%v", x[1], trueVel)
	}
	// Covariance must have contracted from the generous prior.
	p := f.Covariance()
	if p[0][0] >= 10 || p[1][1] >= 10 {
		t.Errorf("covariance did not contract: %v", p)
	}
}

// A nonlinear model: state [x], measurement x².
func TestFilterNonlinearMeasurement(t *testing.T) {
	m := Model{
		StateDim: 1,
		MeasDim:  1,
		Predict: func(x [3]float64) ([3]float64, [3][3]float64) {
			return [3]float64{x[0]}, [3][3]float64{{1}}
		},
		Measure: func(x [3]float64) ([2]float64, [2][3]float64) {
			return [2]float64{x[0] * x[0]}, [2][3]float64{{2 * x[0]}}
		},
	}
	f, err := NewFilter(m, []float64{2.5}, mat.Diag(1), mat.Diag(1e-6), mat.Diag(0.01))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	const trueX = 3.0
	for i := 0; i < 300; i++ {
		f.Predict()
		if _, err := f.Update([]float64{trueX*trueX + rng.NormFloat64()*0.1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.State()[0]; math.Abs(got-trueX) > 0.05 {
		t.Errorf("nonlinear estimate %v, want ~%v", got, trueX)
	}
}

func TestCovarianceStaysPSD(t *testing.T) {
	const dt = 0.05
	m := constVelModel(dt)
	f, err := NewFilter(m,
		[]float64{0, 0},
		mat.Diag(100, 100),
		mat.Diag(1e-6, 1e-5),
		mat.Diag(0.01),
	)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		f.Predict()
		if i%3 == 0 { // intermittent measurements, like GPS
			if _, err := f.Update([]float64{rng.NormFloat64() * 3}); err != nil {
				t.Fatal(err)
			}
		}
		if p := f.Covariance(); !mat.IsPSD(&p, 2, 1e-9) {
			t.Fatalf("covariance lost PSD at step %d", i)
		}
	}
}

func TestInnovationReturned(t *testing.T) {
	m := constVelModel(0.1)
	f, err := NewFilter(m, []float64{5, 0}, mat.Diag(1, 1), mat.Diag(1e-6, 1e-6), mat.Diag(1))
	if err != nil {
		t.Fatal(err)
	}
	innov, err := f.Update([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(innov[0]-2) > 1e-12 {
		t.Errorf("innovation = %v, want 2", innov[0])
	}
}

func TestUpdateDimensionError(t *testing.T) {
	m := constVelModel(0.1)
	f, _ := NewFilter(m, []float64{0, 0}, mat.Diag(1, 1), mat.Diag(1, 1), mat.Diag(1))
	if _, err := f.Update([]float64{1, 2}); err == nil {
		t.Error("wrong measurement dim should error")
	}
}

func TestSetState(t *testing.T) {
	m := constVelModel(0.1)
	f, _ := NewFilter(m, []float64{0, 0}, mat.Diag(1, 1), mat.Diag(1, 1), mat.Diag(1))
	if err := f.SetState([]float64{9, 1}); err != nil {
		t.Fatal(err)
	}
	if got := f.State(); got[0] != 9 || got[1] != 1 {
		t.Errorf("State = %v", got)
	}
	if err := f.SetState([]float64{1}); err == nil {
		t.Error("wrong dim should error")
	}
}

func TestStateIsCopy(t *testing.T) {
	m := constVelModel(0.1)
	f, _ := NewFilter(m, []float64{1, 2}, mat.Diag(1, 1), mat.Diag(1, 1), mat.Diag(1))
	s := f.State()
	s[0] = 99
	if f.State()[0] != 1 {
		t.Error("State aliases filter internals")
	}
	p := f.Covariance()
	p[0][0] = 99
	if f.Covariance()[0][0] == 99 {
		t.Error("Covariance aliases filter internals")
	}
}

func BenchmarkPredictUpdate(b *testing.B) {
	m := constVelModel(0.05)
	f, err := NewFilter(m, []float64{0, 0}, mat.Diag(1, 1), mat.Diag(1e-5, 1e-4), mat.Diag(0.25))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var z [1]float64
	for i := 0; i < b.N; i++ {
		f.Predict()
		z[0] = float64(i % 100)
		if _, err := f.Update(z[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUpdateSingularInnovation(t *testing.T) {
	// A measurement that does not see the state, with zero noise, makes
	// S = H P Hᵀ + R zero: both the 1×1 and the 2×2 path must refuse it.
	for _, m := range []int{1, 2} {
		model := Model{
			StateDim: 2,
			MeasDim:  m,
			Predict: func(x [3]float64) ([3]float64, [3][3]float64) {
				return x, [3][3]float64{{1}, {0, 1}}
			},
			Measure: func(x [3]float64) ([2]float64, [2][3]float64) {
				return [2]float64{}, [2][3]float64{}
			},
		}
		f, err := NewFilter(model, []float64{1, 2}, mat.Diag(1, 1), mat.Diag(0, 0), [3][3]float64{})
		if err != nil {
			t.Fatal(err)
		}
		z := make([]float64, m)
		if _, err := f.Update(z); !errors.Is(err, ErrSingular) {
			t.Errorf("%d measurements: err = %v, want ErrSingular", m, err)
		}
	}
}

func TestResetValidation(t *testing.T) {
	f, err := NewFilter(constVelModel(0.1), []float64{0, 0}, mat.Diag(1, 1), mat.Diag(1, 1), mat.Diag(1))
	if err != nil {
		t.Fatal(err)
	}
	f.Predict()
	if err := f.Reset([]float64{4, 5}, mat.Diag(2, 3)); err != nil {
		t.Fatal(err)
	}
	if f.StateAt(0) != 4 || f.StateAt(1) != 5 || f.CovarianceAt(0, 0) != 2 || f.CovarianceAt(1, 1) != 3 {
		t.Errorf("Reset left state %v, covariance %v", f.State(), f.Covariance())
	}
	if err := f.Reset([]float64{1}, mat.Diag(1, 1)); err == nil {
		t.Error("wrong x0 dim should error")
	}
	if err := f.Reset([]float64{1, 1}, mat.Diag(1, 1, 1)); err == nil {
		t.Error("wrong p0 dim should error")
	}
}

// TestStepAllocations guards the fixed-size filter: a predict/update step
// runs on the stack.
func TestStepAllocations(t *testing.T) {
	f, err := NewFilter(constVelModel(0.1), []float64{0, 0}, mat.Diag(1, 1), mat.Diag(1e-4, 1e-4), mat.Diag(0.25))
	if err != nil {
		t.Fatal(err)
	}
	var z [1]float64
	allocs := testing.AllocsPerRun(100, func() {
		f.Predict()
		z[0] += 0.01
		if _, _, err := f.UpdateGated(z[:], 9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Predict+UpdateGated allocates %v times per step, want 0", allocs)
	}
}
