package fusion

import (
	"errors"
	"fmt"
	"math"
	"time"

	"roadgrade/internal/obs"
)

// Fusion instrumentation. Every batch FuseProfiles call and every
// accumulator rebuild is counted, so a serving deployment can verify that
// fused reads really come from the incremental state (the batch counter must
// stay flat while reads flow) and see how much rebuild work evictions cost.
// The robust counters show how often the bounded-influence machinery
// actually fired (Huber down-weighting, residual clamping, trimming), and the
// histograms how long a fold takes per policy; they are pre-created so the
// Add path never builds label strings.
var (
	obsProfileFuses = obs.Default.Counter("fusion_profile_batch_fuses_total")
	obsAccAdds      = obs.Default.Counter("fusion_accumulator_adds_total")
	obsAccRebuilds  = obs.Default.Counter("fusion_accumulator_rebuilds_total")

	obsRobustDownweighted = obs.Default.Counter("fusion_robust_downweighted_total")
	obsRobustClamped      = obs.Default.Counter("fusion_robust_clamped_total")
	obsRobustTrimmed      = obs.Default.Counter("fusion_robust_trimmed_total")

	obsRobustAddSeconds = map[Policy]*obs.Histogram{
		PolicyNaive:   obs.Default.Histogram("fusion_robust_add_seconds", obs.LatencyBuckets, obs.L("policy", string(PolicyNaive))),
		PolicyHuber:   obs.Default.Histogram("fusion_robust_add_seconds", obs.LatencyBuckets, obs.L("policy", string(PolicyHuber))),
		PolicyTrimmed: obs.Default.Histogram("fusion_robust_add_seconds", obs.LatencyBuckets, obs.L("policy", string(PolicyTrimmed))),
	}
)

// Policy selects the per-cell estimator of a RobustAccumulator.
type Policy string

const (
	// PolicyNaive is the plain inverse-variance average of Eq. (6):
	// every submission is trusted at its reported precision, reputation
	// and bias corrections are ignored. Bit-identical to FuseProfiles.
	PolicyNaive Policy = "naive"
	// PolicyHuber down-weights outlying submissions per cell with the
	// Huber ψ-weight min(1, k/|z|) of the standardized residual z, and
	// clamps the admitted residual to ±ClampRad.
	PolicyHuber Policy = "huber"
	// PolicyTrimmed drops cells whose standardized residual exceeds
	// TrimZ entirely, and clamps the admitted residual to ±ClampRad.
	PolicyTrimmed Policy = "trimmed"
)

// FusionPolicy configures the robust estimator. The zero value selects the
// naive policy; WithDefaults fills unset knobs.
type FusionPolicy struct {
	// Policy selects the estimator ("" means naive).
	Policy Policy
	// HuberK is the Huber tuning constant in standardized-residual units
	// (default 1.2 — slightly harsher than the classical 95%-efficiency
	// 1.345, trading a little clean-fleet efficiency for a cleaner
	// consensus under contamination, which the per-device bias learner
	// then locks onto).
	HuberK float64
	// TrimZ is the trimming threshold in standardized-residual units
	// (default 3).
	TrimZ float64
	// ClampRad bounds the residual any single submission may inject into
	// a consensus cell, in radians (default 0.01 ≈ 0.57°). This is the
	// bounded-influence guarantee: one submission moves a fused cell by
	// strictly less than ClampRad. Road gradients drift slowly, so a
	// tight clamp costs legitimate traffic almost nothing while starving
	// the transient an adversary needs to seed the consensus.
	ClampRad float64
	// MinConsensus is the number of prior contributions a cell needs
	// before robust weighting applies (default 3); below it submissions
	// fuse naively so the first reporters cannot be "outliers" against
	// an empty map.
	MinConsensus int
	// MinWeight floors the reputation weight so a rehabilitated device's
	// submissions keep flowing into the agreement estimate (default 0.01).
	MinWeight float64
}

// WithDefaults returns the policy with unset knobs at their defaults.
func (fp FusionPolicy) WithDefaults() FusionPolicy {
	if fp.Policy == "" {
		fp.Policy = PolicyNaive
	}
	if fp.HuberK <= 0 {
		fp.HuberK = 1.2
	}
	if fp.TrimZ <= 0 {
		fp.TrimZ = 3.0
	}
	if fp.ClampRad <= 0 {
		fp.ClampRad = 0.01
	}
	if fp.MinConsensus <= 0 {
		fp.MinConsensus = 3
	}
	if fp.MinWeight <= 0 {
		fp.MinWeight = 0.01
	}
	return fp
}

// Robust reports whether the policy applies robust weighting (anything but
// naive).
func (fp FusionPolicy) Robust() bool {
	return fp.Policy != PolicyNaive && fp.Policy != ""
}

// ParsePolicy maps a policy name ("naive", "huber", "trimmed") to a
// FusionPolicy with default knobs.
func ParsePolicy(name string) (FusionPolicy, error) {
	switch Policy(name) {
	case PolicyNaive, PolicyHuber, PolicyTrimmed:
		return FusionPolicy{Policy: Policy(name)}.WithDefaults(), nil
	}
	return FusionPolicy{}, fmt.Errorf("fusion: unknown policy %q (want naive, huber, or trimmed)", name)
}

// Reputation EWMA and bias-learning constants. Demotion is faster than
// recovery (hysteresis): one bad submission drops a device quickly, and it
// must agree repeatedly to climb back.
const (
	repAlphaDown = 0.30 // EWMA gain when agreement < reputation
	repAlphaUp   = 0.12 // EWMA gain when agreement >= reputation
	repFloor     = 0.02 // reputation never reaches zero, so devices can recover
	agreeZ2      = 4.0  // |z| <= 2 counts as agreeing with consensus
	minScoreCell = 8    // consensus cells needed before rep/bias update

	biasGain   = 0.25 // EWMA gain of the additive bias estimate
	maxBiasRad = 0.15 // |learned bias| cap, radians (≈ 8.6°)
)

// DeviceState is the per-device trust state: an EWMA reputation in (0, 1]
// tracking how often the device's cells agree with the fused consensus, and a
// learned additive grade bias subtracted from its submissions before robust
// fusion. The caller (cloud.Server) owns locking.
type DeviceState struct {
	// Reputation in [repFloor, 1]; new devices start at 1.
	Reputation float64
	// BiasRad is the learned additive calibration offset, radians.
	BiasRad float64
	// Submissions counts folds that consulted this state.
	Submissions uint64
	// Downweighted counts submissions where the robust estimator fired
	// (Huber weight < 1, a trim, or a residual clamp on any cell).
	Downweighted uint64
	// LastAgreement is the most recent per-submission agreement score in
	// [0, 1] (fraction of consensus cells with |z| <= 2).
	LastAgreement float64
	// BiasObs counts submissions that updated BiasRad (enough consensus
	// overlap); it drives the decaying learning-rate schedule.
	BiasObs uint64
}

// NewDeviceState returns the state of a fresh, fully-trusted device.
func NewDeviceState() *DeviceState {
	return &DeviceState{Reputation: 1, LastAgreement: 1}
}

// weight maps reputation to the multiplicative fusion weight. Squaring makes
// the penalty super-linear (a rep-0.5 device contributes a quarter), and the
// floor keeps rehabilitation possible.
func (d *DeviceState) weight(minWeight float64) float64 {
	w := d.Reputation * d.Reputation
	if w < minWeight {
		return minWeight
	}
	return w
}

// foldStats is what one robust fold learned about the submitting device.
type foldStats struct {
	consensus int     // cells with an established consensus
	agree     int     // of those, cells with z^2 <= agreeZ2
	resSum    float64 // Σ residual over consensus cells (after bias subtraction)
	fired     bool    // any cell down-weighted, trimmed, or clamped
	// Per-mechanism cell counts, also batched into the obs counters.
	downweighted uint64
	trimmed      uint64
	clamped      uint64
}

// FoldReport summarizes what one fold did to one submission — the per-cell
// robustness interventions and the device's post-fold reputation — so
// callers (the coalescer's fold spans) can annotate traces with the
// trust decisions that shaped the map.
type FoldReport struct {
	ConsensusCells int     // cells scored against an established consensus
	AgreeCells     int     // of those, cells within the agreement band
	Downweighted   uint64  // cells Huber-downweighted
	Trimmed        uint64  // cells trimmed to zero weight
	Clamped        uint64  // cells residual-clamped
	Reputation     float64 // device reputation after the fold (1 when anonymous)
}

// observe folds one submission's agreement evidence into the device state.
// Reputation only moves when the submission overlapped enough established
// consensus (minScoreCell cells) for the score to mean something.
func (d *DeviceState) observe(st foldStats) {
	d.Submissions++
	if st.fired {
		d.Downweighted++
	}
	if st.consensus < minScoreCell {
		return
	}
	score := float64(st.agree) / float64(st.consensus)
	d.LastAgreement = score
	alpha := repAlphaUp
	if score < d.Reputation {
		alpha = repAlphaDown
	}
	d.Reputation += alpha * (score - d.Reputation)
	if d.Reputation < repFloor {
		d.Reputation = repFloor
	} else if d.Reputation > 1 {
		d.Reputation = 1
	}
	// Additive bias: the mean residual against consensus is an unbiased
	// estimate of the device's remaining calibration offset (honest noise
	// averages out across cells). The gain schedule is sample-mean-like
	// early (1, 1/2, 1/3, ...) so a constant offset is learned almost
	// immediately, floored at the EWMA gain so the estimate keeps tracking
	// late drift. Bounded so a malicious device cannot bank an absurd
	// "calibration".
	d.BiasObs++
	gain := biasGain
	if g := 1 / float64(d.BiasObs); g > gain {
		gain = g
	}
	mean := st.resSum / float64(st.consensus)
	d.BiasRad += gain * mean
	if d.BiasRad > maxBiasRad {
		d.BiasRad = maxBiasRad
	} else if d.BiasRad < -maxBiasRad {
		d.BiasRad = -maxBiasRad
	}
}

// RobustAccumulator maintains the cloud-stage profile fusion of FuseProfiles
// incrementally. FuseProfiles is a per-cell precision-weighted sum
// (Eq. (6) applied across vehicles):
//
//	θ̄_c = U_c Σ_k θ_k,c / P_k,c,   U_c = (Σ_k 1/P_k,c)⁻¹
//
// so instead of re-running the batch over every stored submission on every
// read — O(submissions × cells) — the accumulator keeps the running totals
// Σ 1/P_k,c (sumInv) and Σ θ_k,c/P_k,c (sumWeighted) per cell:
//
//   - Add folds one submission in: O(cells of that submission).
//   - Fused materializes the fused profile from the totals: O(cells), with
//     zero FuseProfiles calls.
//   - When the retention window is full, accepting a new submission evicts
//     the oldest and rebuilds the totals exactly from the retained window:
//     O(window × cells), paid only on writes past the cap. Eviction never
//     subtracts (floating-point subtraction would drift).
//
// Under a robust policy each submission's per-cell terms are scaled by a
// bounded-influence weight computed against the consensus at admission
// time:
//
//	wi[c] = ρ(device) · ψ(z[c]) · 1/Var[c]
//	cw[c] = wi[c] · clamp(θ_sub[c] − bias, consensus ± ClampRad)
//
// where z[c] = (θ_sub − θ̄)/√(Var + U) is the standardized residual against
// the current fused cell, ψ is the policy's weight function (Huber or hard
// trim), and ρ is the submitting device's reputation weight.
//
// The weights are *frozen* at Add time — this is a sequential (online) robust
// estimator. Freezing is what keeps the accumulator's complexity and
// determinism guarantees intact: Add stays O(cells), eviction rebuilds are
// pure additions of precomputed terms in arrival order (bit-reproducible),
// and the same submission sequence always produces the bit-identical map, on
// the direct path or through the write coalescer.
//
// Under PolicyNaive the weight machinery is bypassed entirely (wi = 1/Var,
// cw = wi·θ, no bias subtraction), so the output is bit-identical to
// FuseProfiles over the retained window — the per-cell additions happen in
// the same submission order with the same association as the batch loop;
// Float64bits-equal, asserted by tests.
//
// Not safe for concurrent use; callers provide locking. Added profiles are
// retained by reference and must not be mutated afterwards.
type RobustAccumulator struct {
	policy    FusionPolicy
	maxWindow int // retention cap; <= 0 means unbounded

	spacing float64
	window  []contribution // retained submissions in arrival order

	cells       int
	sumInv      []float64 // Σ wi[c] over the window
	sumWeighted []float64 // Σ cw[c] over the window
	nSub        []int32   // contributions with Var[c] > 0, for MinConsensus
}

// contribution is one retained submission with its frozen per-cell terms:
// inv[c] = wi[c] and w[c] = cw[c] (under PolicyNaive, 1/Var[c] and
// inv[c]·GradeRad[c], the exact values the batch loop of FuseProfiles
// derives per read). Computing them once at Add time makes eviction rebuilds
// pure additions — no divisions or multiplications — while staying
// bit-identical (the same operands produce the same IEEE results no matter
// when they are computed). Cells with Var[c] <= 0 hold zeroes and are
// skipped at rebuild exactly as the batch loop skips them.
type contribution struct {
	p   *Profile
	inv []float64
	w   []float64
}

// NewRobustAccumulator returns an empty accumulator retaining at most
// maxWindow submissions (<= 0 for unbounded) and fusing under the given
// policy (zero value = naive).
func NewRobustAccumulator(maxWindow int, policy FusionPolicy) *RobustAccumulator {
	return &RobustAccumulator{maxWindow: maxWindow, policy: policy.WithDefaults()}
}

// Policy returns the accumulator's fusion policy (with defaults applied).
func (a *RobustAccumulator) Policy() FusionPolicy { return a.policy }

// Len returns the number of retained submissions.
func (a *RobustAccumulator) Len() int { return len(a.window) }

// Cells returns the current fused grid length.
func (a *RobustAccumulator) Cells() int { return a.cells }

// Spacing returns the grid spacing, or 0 while empty.
func (a *RobustAccumulator) Spacing() float64 {
	if len(a.window) == 0 {
		return 0
	}
	return a.spacing
}

// Window returns the retained submissions in arrival order (a fresh slice;
// the profiles are shared and must be treated as read-only).
func (a *RobustAccumulator) Window() []*Profile {
	out := make([]*Profile, len(a.window))
	for i := range a.window {
		out[i] = a.window[i].p
	}
	return out
}

// Add folds one anonymous submission in: AddDevice with no device state.
func (a *RobustAccumulator) Add(p *Profile) error { return a.AddDevice(p, nil) }

// AddDevice folds one submission from the given device into the running
// totals, evicting the oldest retained submission first when the window is
// full. dev may be nil (anonymous submission: full weight, no bias, no
// reputation update). The device's reputation and bias are updated from the
// submission's agreement with the pre-existing consensus — under every
// policy, so reputations are observable even while fusing naively — but only
// robust policies *apply* them to the fusion weights.
func (a *RobustAccumulator) AddDevice(p *Profile, dev *DeviceState) error {
	_, err := a.AddDeviceReport(p, dev)
	return err
}

// AddDeviceReport is AddDevice returning the fold's robustness report.
func (a *RobustAccumulator) AddDeviceReport(p *Profile, dev *DeviceState) (FoldReport, error) {
	if p == nil || p.Len() == 0 {
		return FoldReport{}, errors.New("fusion: empty profile")
	}
	if len(a.window) == 0 {
		a.spacing = p.SpacingM
	} else if math.Abs(p.SpacingM-a.spacing) > 1e-9 {
		return FoldReport{}, fmt.Errorf("fusion: profile spacing %v != %v", p.SpacingM, a.spacing)
	}
	start := time.Now()
	obsAccAdds.Inc()
	e, st := a.newRobustContribution(p, dev)
	rep := FoldReport{
		ConsensusCells: st.consensus,
		AgreeCells:     st.agree,
		Downweighted:   st.downweighted,
		Trimmed:        st.trimmed,
		Clamped:        st.clamped,
		Reputation:     1,
	}
	if dev != nil {
		dev.observe(st)
		rep.Reputation = dev.Reputation
	}
	if a.maxWindow > 0 && len(a.window) >= a.maxWindow {
		drop := len(a.window) - a.maxWindow + 1
		keep := copy(a.window, a.window[drop:])
		for i := keep; i < len(a.window); i++ {
			a.window[i] = contribution{} // release for GC
		}
		a.window = append(a.window[:keep], e)
		a.rebuild()
	} else {
		a.window = append(a.window, e)
		a.accumulate(e)
	}
	obsRobustAddSeconds[a.policy.Policy].Observe(time.Since(start).Seconds())
	return rep, nil
}

// newRobustContribution computes the submission's frozen per-cell terms
// against the current consensus, plus the agreement stats for the device
// update. Under PolicyNaive the terms are exactly the batch loop's
// (inv = 1/Var, w = inv·grade) — same operands, same IEEE results.
func (a *RobustAccumulator) newRobustContribution(p *Profile, dev *DeviceState) (contribution, foldStats) {
	n := p.Len()
	e := contribution{p: p, inv: make([]float64, n), w: make([]float64, n)}
	var st foldStats

	robust := a.policy.Robust()
	rho, bias := 1.0, 0.0
	if robust && dev != nil {
		rho = dev.weight(a.policy.MinWeight)
		bias = dev.BiasRad
	}
	// Hoist every policy field out of the loop: Policy is a string, and a
	// per-cell switch on it would pay a string compare per cell.
	huber := a.policy.Policy == PolicyHuber
	huberK := a.policy.HuberK
	k2 := huberK * huberK
	tz2 := a.policy.TrimZ * a.policy.TrimZ
	clamp := a.policy.ClampRad
	minC := int32(a.policy.MinConsensus)
	wantStats := dev != nil

	// Counter increments are atomic RMWs; batch them per fold rather than
	// paying one per fired cell (a biased submission fires on most of its
	// cells, which would dominate the fold's cost).

	for c := 0; c < n; c++ {
		if p.Var[c] <= 0 {
			continue // same skip rule as FuseProfiles
		}
		inv := 1 / p.Var[c]
		g := p.GradeRad[c]

		// Consensus lookup: established once MinConsensus prior
		// contributions cover the cell. Read before this submission is
		// folded in, so a device never scores against itself.
		var theta, u float64
		established := false
		if c < a.cells && a.nSub[c] >= minC && a.sumInv[c] > 0 {
			u = 1 / a.sumInv[c] // one reciprocal serves both Eq. (6b) terms
			theta = a.sumWeighted[c] * u
			established = true
		}

		if !robust {
			// Naive policy: the exact batch-fuse arithmetic, frozen.
			e.inv[c] = inv
			e.w[c] = inv * g
			if wantStats && established {
				r := g - theta
				st.consensus++
				if r*r <= agreeZ2*(p.Var[c]+u) {
					st.agree++
				}
				st.resSum += r
			}
			continue
		}

		// Robust policies: bias-correct, standardize against consensus,
		// weight and clamp.
		gc := g
		if bias != 0 {
			gc = g - bias
		}
		if !established {
			// No consensus yet: fuse at reputation weight only.
			wi := rho * inv
			e.inv[c] = wi
			e.w[c] = wi * gc
			continue
		}
		// Standardized-residual tests in squared form — rr vs z²·denom — so
		// inlier cells (the common case on a healthy fleet) cost multiplies
		// only; the divide and sqrt are reserved for actual outliers.
		r := gc - theta
		rr := r * r
		denom := p.Var[c] + u
		if wantStats {
			st.consensus++
			if rr <= agreeZ2*denom {
				st.agree++
			}
			st.resSum += r
		}
		w := 1.0
		if huber {
			if rr > k2*denom {
				w = huberK * math.Sqrt(denom/rr) // k/|z|
				st.fired = true
				st.downweighted++
			}
		} else if rr > tz2*denom { // trimmed
			st.fired = true
			st.trimmed++
			continue // wi = cw = 0: cell contributes nothing
		}
		gEff := gc
		if r > clamp {
			gEff = theta + clamp
			st.fired = true
			st.clamped++
		} else if r < -clamp {
			gEff = theta - clamp
			st.fired = true
			st.clamped++
		}
		wi := rho * w * inv
		e.inv[c] = wi
		e.w[c] = wi * gEff
	}
	if st.downweighted > 0 {
		obsRobustDownweighted.Add(st.downweighted)
	}
	if st.trimmed > 0 {
		obsRobustTrimmed.Add(st.trimmed)
	}
	if st.clamped > 0 {
		obsRobustClamped.Add(st.clamped)
	}
	return e, st
}

// accumulate folds one contribution's cells into the totals, growing the grid
// as needed.
func (a *RobustAccumulator) accumulate(e contribution) {
	if n := e.p.Len(); n > a.cells {
		a.sumInv = growZero(a.sumInv, n)
		a.sumWeighted = growZero(a.sumWeighted, n)
		a.nSub = growZero(a.nSub, n)
		a.cells = n
	}
	vari := e.p.Var[:e.p.Len()]
	for c := range vari {
		if vari[c] <= 0 {
			continue
		}
		a.sumInv[c] += e.inv[c]
		a.sumWeighted[c] += e.w[c]
		a.nSub[c]++
	}
}

// rebuild recomputes the totals from the retained window in arrival order —
// pure additions of the frozen per-cell terms, so the post-eviction state is
// bit-identical to replaying the retained window (under PolicyNaive, to
// FuseProfiles over it).
func (a *RobustAccumulator) rebuild() {
	obsAccRebuilds.Inc()
	a.cells = 0
	for i := range a.window {
		if n := a.window[i].p.Len(); n > a.cells {
			a.cells = n
		}
	}
	a.sumInv = zeroed(a.sumInv, a.cells)
	a.sumWeighted = zeroed(a.sumWeighted, a.cells)
	a.nSub = zeroed(a.nSub, a.cells)
	for i := range a.window {
		e := &a.window[i]
		vari, inv, w := e.p.Var[:e.p.Len()], e.inv, e.w
		sumInv := a.sumInv[:len(vari)]
		sumW := a.sumWeighted[:len(vari)]
		nSub := a.nSub[:len(vari)]
		for c := range vari {
			if vari[c] <= 0 {
				continue
			}
			sumInv[c] += inv[c]
			sumW[c] += w[c]
			nSub[c]++
		}
	}
}

// Fused materializes the fused profile from the running totals: O(cells), no
// batch fuse. The result is freshly allocated; under PolicyNaive it is
// bit-identical to FuseProfiles(a.Window()).
func (a *RobustAccumulator) Fused() (*Profile, error) {
	if len(a.window) == 0 {
		return nil, errors.New("fusion: no profiles")
	}
	out := &Profile{
		SpacingM: a.spacing,
		S:        make([]float64, a.cells),
		GradeRad: make([]float64, a.cells),
		Var:      make([]float64, a.cells),
	}
	for c := 0; c < a.cells; c++ {
		out.S[c] = float64(c) * a.spacing
		if a.sumInv[c] == 0 {
			// No (untrimmed) submission covers this cell; carry forward,
			// exactly as the batch fuse does.
			if c > 0 {
				out.GradeRad[c] = out.GradeRad[c-1]
				out.Var[c] = out.Var[c-1]
			}
			continue
		}
		u := 1 / a.sumInv[c] // Eq. (6b)
		out.GradeRad[c] = u * a.sumWeighted[c]
		out.Var[c] = u
	}
	return out, nil
}

// growZero extends s to length n, preserving existing totals and zero-filling
// the new cells.
func growZero[T float64 | int32](s []T, n int) []T {
	if cap(s) >= n {
		old := len(s)
		s = s[:n]
		clear(s[old:])
		return s
	}
	out := make([]T, n)
	copy(out, s)
	return out
}

// zeroed returns s resized to length n with every cell zero, reusing the
// backing array when possible.
func zeroed[T float64 | int32](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
