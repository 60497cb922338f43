package smoothing

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

func TestNewLoessValidation(t *testing.T) {
	tests := []struct {
		name   string
		span   float64
		degree int
		ok     bool
	}{
		{"valid-1", 0.3, 1, true},
		{"valid-2", 1.0, 2, true},
		{"zero-span", 0, 1, false},
		{"big-span", 1.5, 1, false},
		{"degree-0", 0.5, 0, false},
		{"degree-3", 0.5, 3, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewLoess(tt.span, tt.degree)
			if (err == nil) != tt.ok {
				t.Errorf("NewLoess(%v,%d) err = %v, ok=%v", tt.span, tt.degree, err, tt.ok)
			}
		})
	}
}

// LOESS with a degree-d local polynomial must reproduce any global polynomial
// of degree <= d exactly (up to numerical error), regardless of span.
func TestLoessReproducesPolynomials(t *testing.T) {
	xs := linspace(0, 10, 101)
	tests := []struct {
		name   string
		degree int
		f      func(x float64) float64
	}{
		{"line-deg1", 1, func(x float64) float64 { return 2*x - 3 }},
		{"line-deg2", 2, func(x float64) float64 { return -x + 7 }},
		{"quad-deg2", 2, func(x float64) float64 { return 0.5*x*x - x + 1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ys := make([]float64, len(xs))
			for i, x := range xs {
				ys[i] = tt.f(x)
			}
			l, err := NewLoess(0.3, tt.degree)
			if err != nil {
				t.Fatal(err)
			}
			sm, err := l.Smooth(xs, ys)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sm {
				if math.Abs(sm[i]-ys[i]) > 1e-8 {
					t.Fatalf("at x=%v: smoothed %v, want %v", xs[i], sm[i], ys[i])
				}
			}
		})
	}
}

func TestLoessReducesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := linspace(0, 2*math.Pi, 200)
	clean := make([]float64, len(xs))
	noisy := make([]float64, len(xs))
	for i, x := range xs {
		clean[i] = math.Sin(x)
		noisy[i] = clean[i] + rng.NormFloat64()*0.2
	}
	l, _ := NewLoess(0.15, 2)
	sm, err := l.Smooth(xs, noisy)
	if err != nil {
		t.Fatal(err)
	}
	var rawErr, smErr float64
	for i := range xs {
		rawErr += math.Abs(noisy[i] - clean[i])
		smErr += math.Abs(sm[i] - clean[i])
	}
	if smErr >= rawErr*0.5 {
		t.Errorf("smoothing did not reduce noise enough: raw %v vs smoothed %v", rawErr, smErr)
	}
}

func TestLoessErrors(t *testing.T) {
	l, _ := NewLoess(0.5, 2)
	tiny, _ := NewLoess(0.1, 2) // window smaller than degree+1
	inc := []float64{1, 2, 3}
	tests := []struct {
		name   string
		l      *Loess
		xs, ys []float64
		x      float64 // At's evaluation point
		want   error   // nil: any error
	}{
		{"length mismatch", l, []float64{1, 2}, []float64{1}, 1, nil},
		{"empty input", l, nil, nil, 0, nil},
		{"non-increasing xs", l, []float64{1, 1, 2}, inc, 1, nil},
		{"NaN in xs", l, []float64{1, math.NaN(), 2}, inc, 1, nil},
		{"infinite xs", l, []float64{math.Inf(-1), 1, 2}, inc, 1, nil},
		{"bad span", tiny, []float64{1, 2}, []float64{1, 2}, 1, ErrBadSpan},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.l.Smooth(tt.xs, tt.ys); err == nil || (tt.want != nil && !errors.Is(err, tt.want)) {
				t.Errorf("Smooth: err = %v, want %v", err, tt.want)
			}
			if _, err := tt.l.At(tt.xs, tt.ys, tt.x); err == nil || (tt.want != nil && !errors.Is(err, tt.want)) {
				t.Errorf("At: err = %v, want %v", err, tt.want)
			}
		})
	}
	// At also rejects a non-finite evaluation point on a valid sample set.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := l.At(inc, inc, x); err == nil {
			t.Errorf("At(%v) should error", x)
		}
	}
}

// TestSmoothAllocations guards the stack-resident local fits: Smooth
// allocates only its output slice.
func TestSmoothAllocations(t *testing.T) {
	xs := linspace(0, 10, 200)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(x)
	}
	for _, degree := range []int{1, 2} {
		l, _ := NewLoess(0.1, degree)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := l.Smooth(xs, ys); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("degree %d: Smooth allocates %v times, want 1 (the output)", degree, allocs)
		}
	}
}

func TestLoessAt(t *testing.T) {
	xs := linspace(0, 10, 50)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x
	}
	l, _ := NewLoess(0.4, 1)
	v, err := l.At(xs, ys, 5.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-16.5) > 1e-8 {
		t.Errorf("At(5.5) = %v, want 16.5", v)
	}
	if _, err := l.At(nil, nil, 0); err == nil {
		t.Error("At with empty set should error")
	}
}

func TestNearestWindow(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5}
	tests := []struct {
		x      float64
		window int
		lo, hi int
	}{
		{0, 3, 0, 3},
		{5, 3, 3, 6},
		{2.4, 3, 1, 4},
		{2.6, 3, 2, 5},
		{9, 2, 4, 6},
		{-2, 2, 0, 2},
		{3, 10, 0, 6},
	}
	for _, tt := range tests {
		lo, hi := nearestWindow(xs, tt.x, tt.window)
		if lo != tt.lo || hi != tt.hi {
			t.Errorf("nearestWindow(%v, %d) = [%d,%d), want [%d,%d)", tt.x, tt.window, lo, hi, tt.lo, tt.hi)
		}
	}
}

func TestTricube(t *testing.T) {
	if tricube(0) != 1 {
		t.Error("tricube(0) != 1")
	}
	if tricube(1) != 0 || tricube(2) != 0 {
		t.Error("tricube >= 1 should be 0")
	}
	if tricube(0.5) <= 0 || tricube(0.5) >= 1 {
		t.Error("tricube(0.5) out of (0,1)")
	}
}

func TestMovingAverage(t *testing.T) {
	ys := []float64{1, 2, 3, 4, 5}
	got := MovingAverage(ys, 1)
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("MovingAverage[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	same := MovingAverage(ys, 0)
	for i := range ys {
		if same[i] != ys[i] {
			t.Error("halfWidth 0 should be identity")
		}
	}
	same[0] = 99
	if ys[0] != 1 {
		t.Error("MovingAverage with halfWidth 0 aliases input")
	}
}

func TestExponential(t *testing.T) {
	got, err := Exponential([]float64{1, 2, 3}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1.5, 2.25}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Exponential[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := Exponential([]float64{1}, 0); err == nil {
		t.Error("alpha 0 should error")
	}
	if _, err := Exponential([]float64{1}, 1.1); err == nil {
		t.Error("alpha > 1 should error")
	}
	if out, err := Exponential(nil, 0.5); err != nil || len(out) != 0 {
		t.Errorf("Exponential(nil) = %v, %v", out, err)
	}
}

// Property: smoothed output is bounded by the input envelope for degree 1
// (a weighted-average-like property; degree-1 local fits can overshoot only
// slightly at the edges, so allow a small margin).
func TestLoessBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(60)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + r.Float64()*0.5
			ys[i] = r.NormFloat64()
		}
		l, err := NewLoess(0.5, 1)
		if err != nil {
			return false
		}
		sm, err := l.Smooth(xs, ys)
		if err != nil {
			return false
		}
		var lo, hi float64 = ys[0], ys[0]
		for _, y := range ys {
			lo = math.Min(lo, y)
			hi = math.Max(hi, y)
		}
		margin := (hi - lo) * 0.5
		for _, y := range sm {
			if y < lo-margin || y > hi+margin {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLoessSmooth(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	xs := linspace(0, 100, 500)
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = math.Sin(xs[i]/5) + rng.NormFloat64()*0.1
	}
	l, _ := NewLoess(0.1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := l.Smooth(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}
