// Package core implements the paper's primary contribution: road gradient
// estimation from smartphone measurements. It combines the vehicle state
// space equation (Eq. 5) with an Extended Kalman Filter whose velocity
// innovation corrects the gradient estimate (§III-C2), the steering-rate
// derivation and lane-change velocity correction (§III-B), and produces one
// gradient track per velocity source for fusion (§III-C3).
package core

import (
	"math"

	"roadgrade/internal/kalman"
	"roadgrade/internal/vehicle"
)

// GradeModel is the discrete-time vehicle state space equation of Eq. (5)
// over the state x = [v, θ]:
//
//	v(t+1) = v(t) + (â(t) − g·sin θ(t))·Δt
//	θ(t+1) = θ(t) + ρ·A_f·C_d·v(t)·â(t)/(m·g·cos θ(t))·Δt
//
// where â is the measured longitudinal specific force. The −g·sinθ term
// reflects that a phone accelerometer measures specific force, which is what
// couples the velocity innovation Δ = v̂ − v(t+1|t) to the gradient state
// (DESIGN.md interpretation choice 1); the θ drift term is the paper's
// Eq. (4). The measurement is the longitudinal velocity v̂ from one of the
// four sources.
type GradeModel struct {
	Params vehicle.Params
	DT     float64
	// Accel is the current specific-force input â(t); the caller sets it
	// before each Predict.
	Accel float64
}

// kalmanModel adapts GradeModel to the fixed-size EKF interface. Predict
// evaluates sinθ and cosθ once for both the transition and its Jacobian.
func (g *GradeModel) kalmanModel() kalman.Model {
	return kalman.Model{
		StateDim: 2,
		MeasDim:  1,
		Predict: func(x [3]float64) (fx [3]float64, fj [3][3]float64) {
			v, theta := x[0], clampGrade(x[1])
			sin, cos := math.Sincos(theta)
			p := g.Params
			vNext := v + (g.Accel-vehicle.Gravity*sin)*g.DT
			// Eq. (4), vehicle.Params.GradeDrift, with the shared cosθ.
			drift := p.AirDensity * p.FrontalAreaM2 * p.DragCoeff * v * g.Accel / (p.MassKg * vehicle.Gravity * cos)
			thetaNext := theta + drift*g.DT
			fx[0] = math.Max(0, vNext)
			fx[1] = clampGrade(thetaNext)
			k := p.AirDensity * p.FrontalAreaM2 * p.DragCoeff / (p.MassKg * vehicle.Gravity)
			fj[0][0] = 1
			fj[0][1] = -vehicle.Gravity * cos * g.DT
			fj[1][0] = k * g.Accel * g.DT / cos
			fj[1][1] = 1 + k*v*g.Accel*g.DT*sin/(cos*cos)
			return fx, fj
		},
		Measure: func(x [3]float64) (hx [2]float64, hj [2][3]float64) {
			hx[0] = x[0]
			hj[0][0] = 1
			return hx, hj
		},
	}
}

// clampGrade keeps θ in a physically plausible band (±30°) so cosθ stays
// well conditioned even if the filter is perturbed early on.
func clampGrade(theta float64) float64 {
	const lim = math.Pi / 6
	if theta > lim {
		return lim
	}
	if theta < -lim {
		return -lim
	}
	return theta
}
