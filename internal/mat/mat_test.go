package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentityAndDiag(t *testing.T) {
	if Identity(3) != Diag(1, 1, 1) {
		t.Errorf("Identity(3) != Diag(1,1,1)")
	}
	if got, want := Identity(2), (Mat{{1}, {0, 1}}); got != want {
		t.Errorf("Identity(2) = %v, want %v", got, want)
	}
}

func TestMul(t *testing.T) {
	a := Mat{{1, 2}, {3, 4}}
	b := Mat{{5, 6}, {7, 8}}
	if got, want := Mul(&a, &b, 2, 2, 2), (Mat{{19, 22}, {43, 50}}); got != want {
		t.Errorf("Mul = %v, want %v", got, want)
	}
	// Non-square blocks: (1×2)·(2×3).
	a = Mat{{1, 2}}
	b = Mat{{1, 2, 3}, {4, 5, 6}}
	if got, want := Mul(&a, &b, 1, 2, 3), (Mat{{9, 12, 15}}); got != want {
		t.Errorf("1x2 * 2x3 = %v, want %v", got, want)
	}
	// A zero term of a is skipped, so it cannot turn an Inf of b into NaN.
	a = Mat{{0, 1}}
	b = Mat{{math.Inf(1)}, {2}}
	if got := Mul(&a, &b, 1, 2, 1); got[0][0] != 2 {
		t.Errorf("0·Inf + 1·2 = %v, want 2", got[0][0])
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, N, N)
	id := Identity(N)
	if Mul(&a, &id, N, N, N) != a {
		t.Error("A*I != A")
	}
	if Mul(&id, &a, N, N, N) != a {
		t.Error("I*A != A")
	}
}

func TestAddTo(t *testing.T) {
	a := Mat{{1, 2}, {3, 4}}
	b := Mat{{4, 3, 9}, {2, 1, 9}, {9, 9, 9}}
	AddTo(&a, &b, 2, 2)
	if want := (Mat{{5, 5}, {5, 5}}); a != want {
		t.Errorf("AddTo = %v, want %v (entries outside the block untouched)", a, want)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := Mat{{2, 1}, {1, 3}}
	x, err := Solve(&a, &Vec{3, 5}, 2)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// 2x + y = 3; x + 3y = 5 => x = 4/5, y = 7/5.
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Errorf("Solve = %v", x)
	}
	// x = (1, 2, 3); the zero leading pivot forces a row swap.
	a = Mat{{0, 2, 1}, {1, 1, 1}, {2, 1, 3}}
	x, err = Solve(&a, &Vec{7, 6, 13}, 3)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(x[i]-want) > 1e-12 {
			t.Errorf("row-swapped Solve = %v, want (1, 2, 3)", x)
		}
	}
}

// Entries outside the n×n block take no part in the solve.
func TestSolveLeadingBlock(t *testing.T) {
	// 2x + y = 5, x + 3y = 10 → (1, 3).
	a := Mat{{2, 1, 9}, {1, 3, 9}, {9, 9, 9}}
	x, err := Solve(&a, &Vec{5, 10, 9}, 2)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 || x[2] != 0 {
		t.Errorf("Solve = %v, want (1, 3, 0)", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := Mat{{1, 2}, {2, 4}}
	if _, err := Solve(&a, &Vec{1, 1}, 2); !errors.Is(err, ErrSingular) {
		t.Errorf("Solve singular err = %v, want ErrSingular", err)
	}
	if _, err := Inverse(&a, 2); !errors.Is(err, ErrSingular) {
		t.Errorf("Inverse singular err = %v, want ErrSingular", err)
	}
	if got := Det(&a, 2); got != 0 {
		t.Errorf("Det(singular) = %v, want 0", got)
	}
	nan := Mat{{math.NaN()}}
	if _, err := Solve(&nan, &Vec{1}, 1); !errors.Is(err, ErrSingular) {
		t.Errorf("Solve NaN err = %v, want ErrSingular", err)
	}
}

func TestDet(t *testing.T) {
	tests := []struct {
		name string
		m    Mat
		n    int
		want float64
	}{
		{"identity", Identity(3), 3, 1},
		{"2x2", Mat{{1, 2}, {3, 4}}, 2, -2},
		{"3x3", Mat{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}, 3, 24},
		{"permuted", Mat{{0, 1}, {1, 0}}, 2, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Det(&tt.m, tt.n); math.Abs(got-tt.want) > 1e-10 {
				t.Errorf("Det = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []Mat{
		{{4, 1}, {1, 3}},
		{{1e-3, 2}, {3, 4}}, // the small leading entry forces a row swap
		{{0, 1}, {1, 0}},
	}
	dims := []int{2, 2, 2}
	for n := 1; n <= N; n++ {
		cases = append(cases, diagonallyDominant(rng, n))
		dims = append(dims, n)
	}
	for c, a := range cases {
		n := dims[c]
		inv, err := Inverse(&a, n)
		if err != nil {
			t.Fatalf("Inverse(%v): %v", a, err)
		}
		prod := Mul(&a, &inv, n, n, n)
		id := Identity(n)
		if d := maxAbsDiff(&prod, &id); d > 1e-9 {
			t.Errorf("%v: |A*A^-1 - I| = %g", a, d)
		}
	}
}

func TestCholesky(t *testing.T) {
	a := Mat{{4, 2}, {2, 3}}
	l, err := Cholesky(&a, 2)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	llt := MulT(&l, &l, 2, 2, 2)
	if d := maxAbsDiff(&llt, &a); d > 1e-12 {
		t.Errorf("LL^T differs from A by %g", d)
	}
}

func TestCholeskyNotPSD(t *testing.T) {
	a := Mat{{1, 2}, {2, 1}} // eigenvalues 3, -1
	if _, err := Cholesky(&a, 2); !errors.Is(err, ErrNotPSD) {
		t.Errorf("Cholesky err = %v, want ErrNotPSD", err)
	}
}

func TestIsPSD(t *testing.T) {
	if a := (Mat{{2, 1}, {1, 2}}); !IsPSD(&a, 2, 1e-12) {
		t.Error("PSD matrix reported as not PSD")
	}
	if a := (Mat{{1, 2}, {2, 1}}); IsPSD(&a, 2, 1e-12) {
		t.Error("indefinite matrix reported as PSD")
	}
}

func TestMulVec(t *testing.T) {
	a := Mat{{1, 2}, {3, 4}}
	if got := MulVec(&a, &Vec{1, 1}, 2, 2); got != (Vec{3, 7}) {
		t.Errorf("MulVec = %v", got)
	}
}

func TestSymmetrize(t *testing.T) {
	a := Mat{{1, 2}, {4, 3}}
	s := Symmetrize(&a, 2)
	if s[0][1] != 3 || s[1][0] != 3 {
		t.Errorf("Symmetrize = %v", s)
	}
}

// Property: Solve(A, b) recovers x with Ax = b for diagonally dominant A.
func TestSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(N)
		a := diagonallyDominant(r, n)
		var x Vec
		for i := 0; i < n; i++ {
			x[i] = r.NormFloat64()
		}
		b := MulVec(&a, &x, n, n)
		got, err := Solve(&a, &b, n)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: MulT(a, b) = a·bᵀ bit for bit, and (a·bᵀ)ᵀ = b·aᵀ.
func TestTransposeMulProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(N), 1+r.Intn(N), 1+r.Intn(N)
		a := randomMatrix(r, n, m)
		b := randomMatrix(r, p, m)
		bt := transpose(&b)
		abt := MulT(&a, &b, n, m, p)
		if Mul(&a, &bt, n, m, p) != abt {
			return false
		}
		lhs := transpose(&abt)
		rhs := MulT(&b, &a, p, m, n)
		return maxAbsDiff(&lhs, &rhs) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: det(AB) = det(A) det(B).
func TestDetProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(N)
		a := randomMatrix(r, n, n)
		b := randomMatrix(r, n, n)
		ab := Mul(&a, &b, n, n, n)
		lhs := Det(&ab, n)
		rhs := Det(&a, n) * Det(&b, n)
		scale := math.Max(1, math.Abs(lhs))
		return math.Abs(lhs-rhs)/scale < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVecHelpers(t *testing.T) {
	u := Vec{1, 2, 3}
	v := Vec{4, 5, 6}
	if got := Dot(&u, &v, 3); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := Dot(&u, &v, 2); got != 14 {
		t.Errorf("Dot over 2 components = %v", got)
	}
}

func randomMatrix(r *rand.Rand, rows, cols int) Mat {
	var m Mat
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m[i][j] = r.NormFloat64()
		}
	}
	return m
}

// diagonallyDominant returns a random well-conditioned n×n matrix.
func diagonallyDominant(r *rand.Rand, n int) Mat {
	m := randomMatrix(r, n, n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			rowSum += math.Abs(m[i][j])
		}
		m[i][i] = rowSum + 1
	}
	return m
}

func transpose(a *Mat) (t Mat) {
	for i := range a {
		for j := range a[i] {
			t[j][i] = a[i][j]
		}
	}
	return t
}

func maxAbsDiff(a, b *Mat) float64 {
	var max float64
	for i := range a {
		for j := range a[i] {
			max = math.Max(max, math.Abs(a[i][j]-b[i][j]))
		}
	}
	return max
}
