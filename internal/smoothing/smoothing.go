// Package smoothing implements the signal smoothing used by the lane-change
// detector. The paper (§III-B1) applies local regression [16] to filter
// measuring noise and drift noise out of the steering-rate profile before
// bump features are extracted; this package provides that LOESS smoother
// along with simpler moving-average and exponential filters used elsewhere
// in the pipeline.
package smoothing

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"roadgrade/internal/mat"
)

// ErrBadSpan is returned when a LOESS span yields fewer points than the
// polynomial degree requires.
var ErrBadSpan = errors.New("smoothing: span too small for polynomial degree")

// Loess is a local-regression smoother (Cleveland's LOWESS/LOESS family):
// for every evaluation point it fits a weighted least-squares polynomial to
// the nearest Span fraction of samples, with tricube weights, and returns the
// local fit value.
type Loess struct {
	// Span is the fraction of samples in each local window, in (0, 1].
	Span float64
	// Degree is the local polynomial degree (1 or 2).
	Degree int
}

// NewLoess returns a Loess smoother with validated parameters.
func NewLoess(span float64, degree int) (*Loess, error) {
	if span <= 0 || span > 1 {
		return nil, fmt.Errorf("smoothing: span %v out of range (0,1]", span)
	}
	if degree < 1 || degree > 2 {
		return nil, fmt.Errorf("smoothing: degree %d unsupported (want 1 or 2)", degree)
	}
	return &Loess{Span: span, Degree: degree}, nil
}

// Smooth fits the smoother at every sample location and returns the smoothed
// series. xs must be finite and strictly increasing and the slices must be
// equal length.
func (l *Loess) Smooth(xs, ys []float64) ([]float64, error) {
	window, err := l.window(xs, ys)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = l.fitAt(xs, ys, x, window)
	}
	return out, nil
}

// At evaluates the smoother at an arbitrary finite x given the sample set,
// which must satisfy Smooth's requirements.
func (l *Loess) At(xs, ys []float64, x float64) (float64, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("smoothing: evaluation point %v not finite", x)
	}
	window, err := l.window(xs, ys)
	if err != nil {
		return 0, err
	}
	return l.fitAt(xs, ys, x, window), nil
}

// window validates a sample set and returns the number of samples in each
// local fit.
func (l *Loess) window(xs, ys []float64) (int, error) {
	n := len(xs)
	if n != len(ys) {
		return 0, fmt.Errorf("smoothing: length mismatch %d vs %d", n, len(ys))
	}
	if n == 0 {
		return 0, errors.New("smoothing: empty input")
	}
	for i := 1; i < n; i++ {
		// Negated so that a NaN also fails.
		if !(xs[i] > xs[i-1]) {
			return 0, fmt.Errorf("smoothing: xs not strictly increasing at %d", i)
		}
	}
	// Strictly increasing, so only the ends can be infinite.
	if math.IsInf(xs[0], 0) || math.IsInf(xs[n-1], 0) {
		return 0, errors.New("smoothing: xs not finite")
	}
	window := int(math.Ceil(l.Span * float64(n)))
	if window < l.Degree+1 {
		return 0, ErrBadSpan
	}
	return min(window, n), nil
}

// fitAt performs one weighted polynomial fit centred at x over the nearest
// window samples. The normal equations are at most 3×3 and are solved on the
// stack by mat's LU factorization with partial pivoting.
func (l *Loess) fitAt(xs, ys []float64, x float64, window int) float64 {
	lo, hi := nearestWindow(xs, x, window)
	// Maximum distance in the window defines the tricube scale.
	maxDist := math.Max(math.Abs(xs[lo]-x), math.Abs(xs[hi-1]-x))
	if maxDist == 0 {
		// All window points coincide with x; return their mean.
		var s float64
		for i := lo; i < hi; i++ {
			s += ys[i]
		}
		return s / float64(hi-lo)
	}

	// Weighted normal equations for a degree-d polynomial in (t = xi - x):
	// minimize Σ w_i (y_i - Σ_k c_k t^k)^2. The smoothed value is c_0. The
	// sums always cover the quadratic basis; a linear fit solves only their
	// leading 2×2 block.
	var ata mat.Mat
	var atb mat.Vec
	for i := lo; i < hi; i++ {
		t := xs[i] - x
		w := tricube(math.Abs(t) / maxDist)
		if w == 0 {
			continue
		}
		basis := [3]float64{1, t, t * t}
		for r, br := range basis {
			wb := w * br
			atb[r] += wb * ys[i]
			for c, bc := range basis {
				ata[r][c] += wb * bc
			}
		}
	}
	if c, err := mat.Solve(&ata, &atb, l.Degree+1); err == nil {
		return c[0]
	}
	// Degenerate window (e.g. duplicate weights concentrated at edges): fall
	// back to the weighted mean, which is always defined.
	var sw, swy float64
	for i := lo; i < hi; i++ {
		w := tricube(math.Abs(xs[i]-x) / maxDist)
		sw += w
		swy += w * ys[i]
	}
	if sw == 0 {
		return ys[(lo+hi)/2]
	}
	return swy / sw
}

// nearestWindow returns [lo, hi) bounds of the `window` samples nearest to x.
func nearestWindow(xs []float64, x float64, window int) (int, int) {
	n := len(xs)
	if window >= n {
		return 0, n
	}
	// Start at the insertion point and expand toward the nearer side.
	pos := sort.SearchFloat64s(xs, x)
	lo, hi := pos, pos
	for hi-lo < window {
		switch {
		case lo == 0:
			hi++
		case hi == n:
			lo--
		case x-xs[lo-1] <= xs[hi]-x:
			lo--
		default:
			hi++
		}
	}
	return lo, hi
}

// tricube is the standard LOESS kernel (1 - u^3)^3 for u in [0, 1].
func tricube(u float64) float64 {
	if u >= 1 {
		return 0
	}
	c := 1 - u*u*u
	return c * c * c
}

// MovingAverage smooths ys with a centred window of the given half-width
// (window = 2*halfWidth + 1), shrinking the window at the edges.
func MovingAverage(ys []float64, halfWidth int) []float64 {
	if halfWidth <= 0 {
		return append([]float64(nil), ys...)
	}
	out := make([]float64, len(ys))
	for i := range ys {
		lo := i - halfWidth
		if lo < 0 {
			lo = 0
		}
		hi := i + halfWidth + 1
		if hi > len(ys) {
			hi = len(ys)
		}
		var s float64
		for j := lo; j < hi; j++ {
			s += ys[j]
		}
		out[i] = s / float64(hi-lo)
	}
	return out
}

// Exponential applies a first-order IIR low-pass y'_i = α y_i + (1-α) y'_{i-1}.
// α must be in (0, 1]; α = 1 returns the input unchanged.
func Exponential(ys []float64, alpha float64) ([]float64, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("smoothing: alpha %v out of range (0,1]", alpha)
	}
	out := make([]float64, len(ys))
	if len(ys) == 0 {
		return out, nil
	}
	out[0] = ys[0]
	for i := 1; i < len(ys); i++ {
		out[i] = alpha*ys[i] + (1-alpha)*out[i-1]
	}
	return out, nil
}
