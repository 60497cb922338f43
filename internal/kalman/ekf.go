// Package kalman provides the Extended Kalman Filter used by the road
// gradient estimator (§III-C2) and the altitude-EKF baseline. The filter is
// generic over a user-supplied nonlinear process/measurement model with
// analytic Jacobians, and uses the Joseph-form covariance update for
// numerical robustness over long traces.
//
// State, covariance and every intermediate live in fixed-size mat arrays (at
// most MaxState states and MaxMeas measurements), so a predict/update step
// runs on the stack without allocating.
package kalman

import (
	"errors"
	"fmt"
	"math"

	"roadgrade/internal/mat"
	"roadgrade/internal/obs"
)

// MaxState and MaxMeas bound the model dimensions the filter carries.
const (
	MaxState = mat.N
	MaxMeas  = 2
)

// ErrSingular is returned (wrapped) when the innovation covariance is
// singular to working precision.
var ErrSingular = mat.ErrSingular

// nisHist is the distribution of normalized innovation squared across every
// gated update in the process — the filter-consistency signal (NIS ≈ 1 when
// healthy; mass near the gate means the model disagrees with the sensors).
// Observing is three uncontended atomics, cheap enough for the per-tick path.
var nisHist = obs.Default.Histogram("kalman_nis", obs.NISBuckets)

// Model describes a discrete-time nonlinear system
//
//	x(t+1) = f(x(t)) + w,  w ~ N(0, Q)
//	z(t)   = h(x(t)) + v,  v ~ N(0, R)
//
// with analytic Jacobians F = ∂f/∂x and H = ∂h/∂x. Vectors and matrices are
// read and written in their leading StateDim/MeasDim components; the rest
// must stay zero.
type Model struct {
	StateDim int
	MeasDim  int
	// Predict evaluates f and its Jacobian F at x, so shared terms (sinθ,
	// cosθ) are computed once per step.
	Predict func(x [MaxState]float64) (fx [MaxState]float64, fj [MaxState][MaxState]float64)
	// Measure evaluates h and its Jacobian H at x.
	Measure func(x [MaxState]float64) (hx [MaxMeas]float64, hj [MaxMeas][MaxState]float64)
}

// Validate reports whether the model is complete.
func (m Model) Validate() error {
	switch {
	case m.StateDim <= 0 || m.StateDim > MaxState:
		return fmt.Errorf("kalman: state dimension %d outside [1, %d]", m.StateDim, MaxState)
	case m.MeasDim <= 0 || m.MeasDim > MaxMeas:
		return fmt.Errorf("kalman: measurement dimension %d outside [1, %d]", m.MeasDim, MaxMeas)
	case m.Predict == nil:
		return errors.New("kalman: Predict is required")
	case m.Measure == nil:
		return errors.New("kalman: Measure is required")
	}
	return nil
}

// Filter is an EKF instance. Not safe for concurrent use.
type Filter struct {
	model   Model
	n, m    int
	x       [MaxState]float64
	p, q, r mat.Mat
	innov   mat.Vec
}

// NewFilter builds a filter with initial state x0, initial covariance p0,
// process noise q and measurement noise r. Each matrix must be finite and
// zero outside its leading n×n (r: m×m) block.
func NewFilter(model Model, x0 []float64, p0, q, r [MaxState][MaxState]float64) (*Filter, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	n, m := model.StateDim, model.MeasDim
	if err := checkBlock("q", &q, n); err != nil {
		return nil, err
	}
	if err := checkBlock("r", &r, m); err != nil {
		return nil, err
	}
	f := &Filter{model: model, n: n, m: m, q: q, r: r}
	if err := f.Reset(x0, p0); err != nil {
		return nil, err
	}
	return f, nil
}

// checkBlock rejects a matrix with non-finite entries or non-zero entries
// outside its leading dim×dim block.
func checkBlock(name string, a *mat.Mat, dim int) error {
	for i := range a {
		for j, v := range a[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("kalman: %s has non-finite entry (%d,%d)", name, i, j)
			}
			if (i >= dim || j >= dim) && v != 0 {
				return fmt.Errorf("kalman: %s must be %dx%d, has entry (%d,%d)", name, dim, dim, i, j)
			}
		}
	}
	return nil
}

// Predict advances the state one step through the process model.
func (f *Filter) Predict() {
	n := f.n
	x, fj := f.model.Predict(f.x)
	f.x = x
	// P = F P Fᵀ + Q
	fp := mat.Mul(&fj, &f.p, n, n, n)
	fpf := mat.MulT(&fp, &fj, n, n, n)
	mat.AddTo(&fpf, &f.q, n, n)
	f.p = mat.Symmetrize(&fpf, n)
}

// Update folds in measurement z and returns the innovation z − h(x). The
// returned slice is a scratch buffer valid until the next Update; clone it to
// retain.
func (f *Filter) Update(z []float64) ([]float64, error) {
	innov, _, err := f.UpdateGated(z, 0)
	return innov, err
}

// UpdateGated is Update with innovation gating: if gate > 0 and the
// normalized innovation squared νᵀS⁻¹ν exceeds the gate, the measurement is
// rejected — the state and covariance are left untouched — and accepted is
// false. Non-finite measurements are likewise rejected rather than erroring,
// so a stream carrying NaN bursts degrades to prediction-only instead of
// corrupting the filter. The returned innovation is a scratch buffer valid
// until the next update; clone it to retain.
func (f *Filter) UpdateGated(z []float64, gate float64) (innov []float64, accepted bool, err error) {
	n, m := f.n, f.m
	if len(z) != m {
		return nil, false, fmt.Errorf("kalman: measurement dim %d, want %d", len(z), m)
	}
	for _, v := range z {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false, nil
		}
	}
	pred, hm := f.model.Measure(f.x)
	var h mat.Mat
	for i := 0; i < m; i++ {
		f.innov[i] = z[i] - pred[i]
		h[i] = hm[i]
	}
	nu := &f.innov

	// S = H P Hᵀ + R
	hp := mat.Mul(&h, &f.p, m, n, n)
	s := mat.MulT(&hp, &h, m, n, m)
	mat.AddTo(&s, &f.r, m, m)
	var sInv mat.Mat
	switch {
	case m > 1:
		sInv, err = mat.Inverse(&s, m)
	case s[0][0] == 0 || math.IsNaN(s[0][0]):
		err = ErrSingular
	default:
		sInv[0][0] = 1 / s[0][0] // the 1×1 inverse, inline
	}
	if err != nil {
		return nil, false, fmt.Errorf("kalman: innovation covariance singular: %w", err)
	}
	if gate > 0 {
		// νᵀ S⁻¹ ν — for the common 1-D case this is ν²/S.
		sn := mat.MulVec(&sInv, nu, m, m)
		nis := mat.Dot(nu, &sn, m)
		nisHist.Observe(nis)
		if nis > gate {
			return nu[:m], false, nil
		}
	}
	// K = P Hᵀ S⁻¹
	pht := mat.MulT(&f.p, &h, n, n, m)
	k := mat.Mul(&pht, &sInv, n, m, m)
	// x += K·innov
	kv := mat.MulVec(&k, nu, n, m)
	for i := 0; i < n; i++ {
		f.x[i] += kv[i]
	}
	// Joseph form: P = (I−KH) P (I−KH)ᵀ + K R Kᵀ
	kh := mat.Mul(&k, &h, n, m, n)
	var ikh mat.Mat
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var eye float64
			if i == j {
				eye = 1
			}
			ikh[i][j] = eye - kh[i][j]
		}
	}
	ikhP := mat.Mul(&ikh, &f.p, n, n, n)
	joseph := mat.MulT(&ikhP, &ikh, n, n, n)
	kr := mat.Mul(&k, &f.r, n, m, m)
	krk := mat.MulT(&kr, &k, n, m, n)
	mat.AddTo(&joseph, &krk, n, n)
	f.p = mat.Symmetrize(&joseph, n)
	return nu[:m], true, nil
}

// Healthy reports whether the state and covariance are finite — the
// divergence test callers run before trusting (or resetting) the filter.
func (f *Filter) Healthy() bool {
	for i := 0; i < f.n; i++ {
		if v := f.x[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		for j := 0; j < f.n; j++ {
			if v := f.p[i][j]; math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// State returns a copy of the current state estimate.
func (f *Filter) State() []float64 { return append([]float64(nil), f.x[:f.n]...) }

// StateAt returns one component of the state estimate without copying.
func (f *Filter) StateAt(i int) float64 { return f.x[i] }

// SetState overwrites the state estimate (e.g. re-anchoring after a gap).
func (f *Filter) SetState(x []float64) error {
	if len(x) != f.n {
		return fmt.Errorf("kalman: state dim %d, want %d", len(x), f.n)
	}
	copy(f.x[:], x)
	return nil
}

// Covariance returns the current estimate covariance.
func (f *Filter) Covariance() [MaxState][MaxState]float64 { return f.p }

// CovarianceAt returns one element of the estimate covariance.
func (f *Filter) CovarianceAt(i, j int) float64 { return f.p[i][j] }

// Reset reinitializes the state and covariance, keeping the model and noise
// matrices. It lets one filter run several passes (e.g. the forward/backward
// sweeps of the two-pass estimator) without rebuilding.
func (f *Filter) Reset(x0 []float64, p0 [MaxState][MaxState]float64) error {
	if len(x0) != f.n {
		return fmt.Errorf("kalman: x0 has dim %d, want %d", len(x0), f.n)
	}
	if err := checkBlock("p0", &p0, f.n); err != nil {
		return err
	}
	copy(f.x[:], x0)
	f.p = p0
	return nil
}
