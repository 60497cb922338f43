// Package mat provides the small dense linear algebra behind the
// road-gradient estimator: the EKF covariance updates and the LOESS normal
// equations.
//
// Every matrix is at most N×N and lives in a fixed-size array, so each
// operation runs on the stack without allocating. An r×c matrix occupies the
// top-left block of a Mat and the rest stays zero; functions take the block
// dimensions they work on. Products sum their terms in index order starting
// from zero, which the estimator's pinned-bits tests hold.
package mat

import (
	"errors"
	"math"
)

// N is the largest matrix dimension.
const N = 3

// Mat is an N×N matrix; smaller matrices use its top-left block.
type Mat = [N][N]float64

// Vec is an N-vector; shorter vectors use its leading components.
type Vec = [N]float64

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular to working precision.
var ErrSingular = errors.New("mat: matrix is singular")

// ErrNotPSD is returned by Cholesky when the matrix is not positive definite.
var ErrNotPSD = errors.New("mat: matrix is not positive definite")

// Identity returns the n×n identity.
func Identity(n int) Mat {
	var a Mat
	for i := 0; i < n; i++ {
		a[i][i] = 1
	}
	return a
}

// Diag returns the square matrix with d on its diagonal.
func Diag(d ...float64) Mat {
	var a Mat
	for i, v := range d {
		a[i][i] = v
	}
	return a
}

// Mul returns a·b for the r×k block of a and the k×c block of b. Zero terms
// of a are skipped, so 0·Inf never poisons a sum.
func Mul(a, b *Mat, r, k, c int) (out Mat) {
	for i := 0; i < r; i++ {
		for l := 0; l < k; l++ {
			av := a[i][l]
			if av == 0 {
				continue
			}
			for j := 0; j < c; j++ {
				out[i][j] += av * b[l][j]
			}
		}
	}
	return out
}

// MulT returns a·bᵀ for the r×k block of a and the c×k block of b, with
// Mul's accumulation order and zero skip.
func MulT(a, b *Mat, r, k, c int) (out Mat) {
	for i := 0; i < r; i++ {
		for l := 0; l < k; l++ {
			av := a[i][l]
			if av == 0 {
				continue
			}
			for j := 0; j < c; j++ {
				out[i][j] += av * b[j][l]
			}
		}
	}
	return out
}

// AddTo adds b to a over the r×c block.
func AddTo(a, b *Mat, r, c int) {
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			a[i][j] += b[i][j]
		}
	}
}

// Symmetrize returns (a + aᵀ)/2 over the n×n block, used to keep covariance
// matrices symmetric under floating-point drift.
func Symmetrize(a *Mat, n int) (out Mat) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[i][j] = 0.5 * (a[i][j] + a[j][i])
		}
	}
	return out
}

// MulVec returns a·v for the r×c block of a and the leading c components
// of v.
func MulVec(a *Mat, v *Vec, r, c int) (out Vec) {
	for i := 0; i < r; i++ {
		var s float64
		for j := 0; j < c; j++ {
			s += a[i][j] * v[j]
		}
		out[i] = s
	}
	return out
}

// Dot returns the inner product of the leading n components of u and v.
func Dot(u, v *Vec, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += u[i] * v[i]
	}
	return s
}

// lu holds an LU factorization with partial pivoting, PA = LU, of an n×n
// block: L (unit lower, implicit ones) and U packed in f.
type lu struct {
	f    Mat
	perm [N]int
	sign float64 // permutation sign, for Det
	n    int
}

func factor(a *Mat, n int) (lu, error) {
	d := lu{f: *a, perm: [N]int{0, 1, 2}, sign: 1, n: n}
	f := &d.f
	for k := 0; k < n; k++ {
		// Partial pivot: largest magnitude in column k at/below the diagonal.
		p, max := k, math.Abs(f[k][k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f[i][k]); v > max {
				p, max = i, v
			}
		}
		if max == 0 || math.IsNaN(max) {
			return d, ErrSingular
		}
		if p != k {
			f[k], f[p] = f[p], f[k]
			d.perm[k], d.perm[p] = d.perm[p], d.perm[k]
			d.sign = -d.sign
		}
		piv := f[k][k]
		for i := k + 1; i < n; i++ {
			l := f[i][k] / piv
			f[i][k] = l
			for j := k + 1; j < n; j++ {
				f[i][j] -= l * f[k][j]
			}
		}
	}
	return d, nil
}

// solve returns x with A x = b.
func (d *lu) solve(b *Vec) (x Vec) {
	n := d.n
	for i := 0; i < n; i++ {
		x[i] = b[d.perm[i]]
	}
	// Forward substitution (unit lower).
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= d.f[i][j] * x[j]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= d.f[i][j] * x[j]
		}
		x[i] /= d.f[i][i]
	}
	return x
}

// Solve solves A x = b for the n×n block of a and the leading n components
// of b.
func Solve(a *Mat, b *Vec, n int) (Vec, error) {
	d, err := factor(a, n)
	if err != nil {
		return Vec{}, err
	}
	return d.solve(b), nil
}

// Inverse returns the inverse of the n×n block of a, solved one identity
// column at a time.
func Inverse(a *Mat, n int) (inv Mat, err error) {
	d, err := factor(a, n)
	if err != nil {
		return inv, err
	}
	for col := 0; col < n; col++ {
		var e Vec
		e[col] = 1
		x := d.solve(&e)
		for i := 0; i < n; i++ {
			inv[i][col] = x[i]
		}
	}
	return inv, nil
}

// Det returns the determinant of the n×n block of a. A singular matrix
// yields 0.
func Det(a *Mat, n int) float64 {
	d, err := factor(a, n)
	if err != nil {
		return 0
	}
	det := d.sign
	for i := 0; i < n; i++ {
		det *= d.f[i][i]
	}
	return det
}

// Cholesky returns the lower-triangular L with A = L Lᵀ for the n×n block of
// a, or ErrNotPSD.
func Cholesky(a *Mat, n int) (l Mat, err error) {
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return Mat{}, ErrNotPSD
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// IsPSD reports whether the n×n block of a symmetric matrix is positive
// semi-definite, within tolerance tol added to the diagonal.
func IsPSD(a *Mat, n int, tol float64) bool {
	shifted := Symmetrize(a, n)
	for i := 0; i < n; i++ {
		shifted[i][i] += tol
	}
	_, err := Cholesky(&shifted, n)
	return err == nil
}
