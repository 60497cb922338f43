package fusion

import (
	"math"
	"math/rand"
	"testing"
)

// syntheticProfile builds a submission over a sine-wave truth grade: truth
// plus the device's additive bias plus zero-mean noise of the given sigma,
// reported at variance sigma².
func syntheticProfile(cells int, spacing, bias, sigma float64, rng *rand.Rand) *Profile {
	p := &Profile{
		SpacingM: spacing,
		S:        make([]float64, cells),
		GradeRad: make([]float64, cells),
		Var:      make([]float64, cells),
	}
	for i := 0; i < cells; i++ {
		p.S[i] = float64(i) * spacing
		p.GradeRad[i] = 0.03*math.Sin(float64(i)/10) + bias + sigma*rng.NormFloat64()
		p.Var[i] = sigma * sigma
	}
	return p
}

// randomProfile builds a profile with rng-driven length, grades and
// variances; a few cells get non-positive variance so the FuseProfiles skip
// rule is exercised.
func randomProfile(rng *rand.Rand, spacing float64) *Profile {
	n := 1 + rng.Intn(40)
	p := &Profile{
		SpacingM: spacing,
		S:        make([]float64, n),
		GradeRad: make([]float64, n),
		Var:      make([]float64, n),
	}
	for i := 0; i < n; i++ {
		p.S[i] = float64(i) * spacing
		p.GradeRad[i] = 0.1 * (rng.Float64() - 0.5)
		p.Var[i] = 1e-5 + 1e-3*rng.Float64()
		if rng.Intn(20) == 0 {
			p.Var[i] = 0 // uncovered cell: batch fuse skips it
		}
	}
	return p
}

// bitIdentical reports whether two profiles match bit-for-bit (NaN-safe).
func bitIdentical(a, b *Profile) bool {
	if a.SpacingM != b.SpacingM || a.Len() != b.Len() {
		return false
	}
	for i := range a.S {
		if math.Float64bits(a.S[i]) != math.Float64bits(b.S[i]) ||
			math.Float64bits(a.GradeRad[i]) != math.Float64bits(b.GradeRad[i]) ||
			math.Float64bits(a.Var[i]) != math.Float64bits(b.Var[i]) {
			return false
		}
	}
	return true
}

// TestRobustNaivePolicyBitIdentical is the PR 7 equivalence property: under
// PolicyNaive (reputations all starting at 1.0 — and in fact ignored
// entirely, so the property holds for any reputation history), the robust
// accumulator's fused output is bit-identical (Float64bits) to batch
// FuseProfiles over the retained window, across eviction windows 0/1/3/8.
// Exercised both with per-device state attached and with anonymous
// submissions.
func TestRobustNaivePolicyBitIdentical(t *testing.T) {
	for _, withDevices := range []bool{false, true} {
		for _, window := range []int{0, 1, 3, 8} {
			rng := rand.New(rand.NewSource(42))
			acc := NewRobustAccumulator(window, FusionPolicy{Policy: PolicyNaive})
			devices := make([]*DeviceState, 4)
			for i := range devices {
				devices[i] = NewDeviceState()
			}
			var all []*Profile
			for i := 0; i < 120; i++ {
				p := randomProfile(rng, 5)
				var dev *DeviceState
				if withDevices {
					dev = devices[i%len(devices)]
				}
				if err := acc.AddDevice(p, dev); err != nil {
					t.Fatalf("window %d add %d: %v", window, i, err)
				}
				all = append(all, p)
				retained := all
				if window > 0 && len(retained) > window {
					retained = retained[len(retained)-window:]
				}
				want, err := FuseProfiles(retained)
				if err != nil {
					t.Fatalf("window %d batch fuse: %v", window, err)
				}
				got, err := acc.Fused()
				if err != nil {
					t.Fatalf("window %d robust fuse: %v", window, err)
				}
				if !bitIdentical(got, want) {
					t.Fatalf("devices=%v window %d after %d adds: naive robust fuse diverged from batch",
						withDevices, window, i+1)
				}
			}
		}
	}
}

// TestRobustBoundedInfluence: once a cell has consensus, one adversarial
// device — arbitrarily wrong and arbitrarily overconfident — moves any fused
// cell by at most the policy's clamp bound, for fleets of N honest devices.
func TestRobustBoundedInfluence(t *testing.T) {
	const cells = 60
	for _, policy := range []Policy{PolicyHuber, PolicyTrimmed} {
		for _, n := range []int{3, 10, 100} {
			pol := FusionPolicy{Policy: policy}.WithDefaults()
			acc := NewRobustAccumulator(0, pol)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < n; i++ {
				if err := acc.AddDevice(syntheticProfile(cells, 5, 0, 0.002, rng), NewDeviceState()); err != nil {
					t.Fatal(err)
				}
			}
			before, err := acc.Fused()
			if err != nil {
				t.Fatal(err)
			}
			// Adversary: hugely wrong grade at absurdly overconfident
			// (tiny) reported variance, so naive fusion would hand it
			// nearly all the weight.
			adv := syntheticProfile(cells, 5, 0, 0.002, rng)
			for c := range adv.GradeRad {
				adv.GradeRad[c] = 0.5
				adv.Var[c] = 1e-9
			}
			if err := acc.AddDevice(adv, NewDeviceState()); err != nil {
				t.Fatal(err)
			}
			after, err := acc.Fused()
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < cells; c++ {
				if d := math.Abs(after.GradeRad[c] - before.GradeRad[c]); d > pol.ClampRad+1e-12 {
					t.Fatalf("policy %s N=%d cell %d moved %.4f rad > clamp %.4f",
						policy, n, c, d, pol.ClampRad)
				}
			}
			// Sanity: naive fusion with the same inputs is NOT bounded —
			// the overconfident adversary captures the cell.
			if policy == PolicyHuber && n == 10 {
				naive := NewRobustAccumulator(0, FusionPolicy{Policy: PolicyNaive})
				rng2 := rand.New(rand.NewSource(7))
				for i := 0; i < n; i++ {
					_ = naive.Add(syntheticProfile(cells, 5, 0, 0.002, rng2))
				}
				nb, _ := naive.Fused()
				_ = naive.Add(adv)
				na, _ := naive.Fused()
				moved := math.Abs(na.GradeRad[10] - nb.GradeRad[10])
				if moved < 0.1 {
					t.Fatalf("naive fusion should be captured by the adversary, moved only %.4f rad", moved)
				}
			}
		}
	}
}

// TestRobustDeterministic: the robust path must stay bit-reproducible — the
// same submission/device sequence yields the bit-identical map, including
// across windowed evictions (frozen weights make rebuilds pure additions).
func TestRobustDeterministic(t *testing.T) {
	for _, window := range []int{3, 8, 0} {
		run := func() *Profile {
			rng := rand.New(rand.NewSource(99))
			acc := NewRobustAccumulator(window, FusionPolicy{Policy: PolicyHuber})
			devs := []*DeviceState{NewDeviceState(), NewDeviceState(), NewDeviceState()}
			for i := 0; i < 60; i++ {
				bias := 0.0
				if i%3 == 2 {
					bias = 0.08 // one misbehaving device in the rotation
				}
				p := syntheticProfile(40, 5, bias, 0.004, rng)
				if err := acc.AddDevice(p, devs[i%3]); err != nil {
					t.Fatal(err)
				}
			}
			f, err := acc.Fused()
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		a, b := run(), run()
		if !bitIdentical(a, b) {
			t.Fatalf("window %d: robust fusion is not deterministic", window)
		}
	}
}

// TestDeviceReputationHysteresis: disagreement demotes a device's reputation
// quickly; sustained agreement recovers it, but strictly more slowly than the
// fall (hysteresis), and never below the floor.
func TestDeviceReputationHysteresis(t *testing.T) {
	const cells = 40
	rng := rand.New(rand.NewSource(5))
	acc := NewRobustAccumulator(0, FusionPolicy{Policy: PolicyTrimmed})
	honest := []*DeviceState{NewDeviceState(), NewDeviceState(), NewDeviceState()}
	for i := 0; i < 6; i++ {
		if err := acc.AddDevice(syntheticProfile(cells, 5, 0, 0.004, rng), honest[i%3]); err != nil {
			t.Fatal(err)
		}
	}
	bad := NewDeviceState()
	// Zero-mean, large, alternating-sign disagreement: every cell is an
	// outlier but the mean residual is ~0, so the bias estimator cannot
	// "explain" it and reputation must take the hit.
	badProfile := func() *Profile {
		p := syntheticProfile(cells, 5, 0, 0.004, rng)
		for c := range p.GradeRad {
			off := 0.1
			if c%2 == 1 {
				off = -0.1
			}
			p.GradeRad[c] += off
		}
		return p
	}
	drops := 0
	for bad.Reputation > 0.2 {
		if err := acc.AddDevice(badProfile(), bad); err != nil {
			t.Fatal(err)
		}
		// Keep the consensus anchored by honest traffic.
		if err := acc.AddDevice(syntheticProfile(cells, 5, 0, 0.004, rng), honest[drops%3]); err != nil {
			t.Fatal(err)
		}
		drops++
		if drops > 20 {
			t.Fatalf("reputation did not drop below 0.2 after %d bad submissions (now %.3f)", drops, bad.Reputation)
		}
	}
	if drops > 8 {
		t.Fatalf("demotion too slow: %d submissions to fall below 0.2", drops)
	}
	if bad.LastAgreement > 0.3 {
		t.Errorf("LastAgreement = %.2f after persistent disagreement, want low", bad.LastAgreement)
	}
	if math.Abs(bad.BiasRad) > 0.02 {
		t.Errorf("zero-mean disagreement leaked into bias estimate: %.4f rad", bad.BiasRad)
	}

	// Rehabilitation: honest submissions from the demoted device.
	recoveries := 0
	for bad.Reputation < 0.9 {
		if err := acc.AddDevice(syntheticProfile(cells, 5, 0, 0.004, rng), bad); err != nil {
			t.Fatal(err)
		}
		recoveries++
		if recoveries > 60 {
			t.Fatalf("reputation did not recover above 0.9 after %d honest submissions (now %.3f)", recoveries, bad.Reputation)
		}
	}
	if recoveries <= drops {
		t.Errorf("no hysteresis: recovery (%d submissions) not slower than demotion (%d)", recoveries, drops)
	}
	if bad.Downweighted == 0 {
		t.Error("Downweighted counter never incremented for a misbehaving device")
	}
}

// TestDeviceBiasConvergence: a systematically miscalibrated (but otherwise
// honest) device has its additive offset learned from consensus residuals and
// subtracted, so its agreement — and usefulness — recovers.
func TestDeviceBiasConvergence(t *testing.T) {
	const cells, trueBias = 40, 0.05
	rng := rand.New(rand.NewSource(11))
	acc := NewRobustAccumulator(0, FusionPolicy{Policy: PolicyHuber})
	honest := []*DeviceState{NewDeviceState(), NewDeviceState(), NewDeviceState()}
	for i := 0; i < 6; i++ {
		if err := acc.AddDevice(syntheticProfile(cells, 5, 0, 0.004, rng), honest[i%3]); err != nil {
			t.Fatal(err)
		}
	}
	dev := NewDeviceState()
	for i := 0; i < 25; i++ {
		if err := acc.AddDevice(syntheticProfile(cells, 5, trueBias, 0.004, rng), dev); err != nil {
			t.Fatal(err)
		}
		if err := acc.AddDevice(syntheticProfile(cells, 5, 0, 0.004, rng), honest[i%3]); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(dev.BiasRad-trueBias) > 0.01 {
		t.Errorf("learned bias %.4f rad, want ≈ %.2f", dev.BiasRad, trueBias)
	}
	if dev.LastAgreement < 0.8 {
		t.Errorf("agreement %.2f after bias correction, want ≥ 0.8", dev.LastAgreement)
	}
	if dev.Reputation < 0.5 {
		t.Errorf("reputation %.2f: bias-corrected device should rehabilitate", dev.Reputation)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"naive", "huber", "trimmed"} {
		fp, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if string(fp.Policy) != name {
			t.Errorf("ParsePolicy(%q).Policy = %q", name, fp.Policy)
		}
		if fp.HuberK != 1.2 || fp.TrimZ != 3.0 || fp.ClampRad != 0.01 || fp.MinConsensus != 3 {
			t.Errorf("ParsePolicy(%q) defaults not applied: %+v", name, fp)
		}
	}
	if _, err := ParsePolicy("median"); err == nil {
		t.Error("unknown policy should error")
	}
	if (FusionPolicy{}).WithDefaults().Policy != PolicyNaive {
		t.Error("zero-value policy should default to naive")
	}
	if (FusionPolicy{Policy: PolicyHuber}).Robust() != true || (FusionPolicy{}).Robust() {
		t.Error("Robust() misclassifies policies")
	}
}

func TestRobustAccumulatorValidation(t *testing.T) {
	acc := NewRobustAccumulator(4, FusionPolicy{Policy: PolicyHuber})
	if _, err := acc.Fused(); err == nil {
		t.Error("empty accumulator should refuse to fuse")
	}
	if err := acc.Add(nil); err == nil {
		t.Error("nil profile should error")
	}
	if err := acc.Add(&Profile{SpacingM: 5}); err == nil {
		t.Error("empty profile should error")
	}
	p := randomProfile(rand.New(rand.NewSource(1)), 5)
	if err := acc.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(randomProfile(rand.New(rand.NewSource(2)), 3)); err == nil {
		t.Error("spacing mismatch should error")
	}
	if acc.Len() != 1 {
		t.Errorf("rejected profile must not be retained: Len = %d", acc.Len())
	}
	if acc.Spacing() != 5 {
		t.Errorf("Spacing = %v, want 5", acc.Spacing())
	}
	if got := acc.Policy().Policy; got != PolicyHuber {
		t.Errorf("Policy() = %q", got)
	}
}

// TestAccumulatorMatchesBatchFuse is the naive-policy equivalence property
// for anonymous submissions: after every Add — through growth, uncovered
// cells and windowed eviction — the fused output must be bit-identical to
// batch FuseProfiles over the retained window, and Len must count exactly
// the retained submissions.
func TestAccumulatorMatchesBatchFuse(t *testing.T) {
	for _, window := range []int{0, 1, 3, 8, 64} {
		rng := rand.New(rand.NewSource(42))
		acc := NewRobustAccumulator(window, FusionPolicy{Policy: PolicyNaive})
		var all []*Profile
		for i := 0; i < 200; i++ {
			p := randomProfile(rng, 5)
			if err := acc.Add(p); err != nil {
				t.Fatalf("window %d add %d: %v", window, i, err)
			}
			all = append(all, p)
			retained := all
			if window > 0 && len(retained) > window {
				retained = retained[len(retained)-window:]
			}
			if got := acc.Len(); got != len(retained) {
				t.Fatalf("window %d: Len = %d, want %d", window, got, len(retained))
			}
			want, err := FuseProfiles(retained)
			if err != nil {
				t.Fatalf("window %d batch fuse: %v", window, err)
			}
			got, err := acc.Fused()
			if err != nil {
				t.Fatalf("window %d incremental fuse: %v", window, err)
			}
			if !bitIdentical(got, want) {
				t.Fatalf("window %d after %d adds: incremental fuse diverged from batch", window, i+1)
			}
		}
	}
}

func TestAccumulatorValidation(t *testing.T) {
	acc := NewRobustAccumulator(4, FusionPolicy{Policy: PolicyNaive})
	if _, err := acc.Fused(); err == nil {
		t.Error("empty accumulator should refuse to fuse")
	}
	if err := acc.Add(nil); err == nil {
		t.Error("nil profile should error")
	}
	if err := acc.Add(&Profile{SpacingM: 5}); err == nil {
		t.Error("empty profile should error")
	}
	p := randomProfile(rand.New(rand.NewSource(1)), 5)
	if err := acc.Add(p); err != nil {
		t.Fatal(err)
	}
	q := randomProfile(rand.New(rand.NewSource(2)), 3)
	if err := acc.Add(q); err == nil {
		t.Error("spacing mismatch should error")
	}
	if acc.Len() != 1 {
		t.Errorf("rejected profile must not be retained: Len = %d", acc.Len())
	}
	if acc.Spacing() != 5 {
		t.Errorf("Spacing = %v, want 5", acc.Spacing())
	}
}

func TestAccumulatorWindowShrinksCells(t *testing.T) {
	// A long profile followed by short ones: once the long one is evicted,
	// the fused grid must shrink back to the retained maximum, exactly as a
	// batch fuse over the retained window would.
	long := &Profile{SpacingM: 5, S: make([]float64, 30), GradeRad: make([]float64, 30), Var: make([]float64, 30)}
	for i := range long.S {
		long.S[i] = float64(i) * 5
		long.GradeRad[i] = 0.01
		long.Var[i] = 1e-4
	}
	short := &Profile{SpacingM: 5, S: []float64{0, 5}, GradeRad: []float64{0.02, 0.03}, Var: []float64{1e-4, 1e-4}}
	acc := NewRobustAccumulator(2, FusionPolicy{Policy: PolicyNaive})
	for _, p := range []*Profile{long, short, short} {
		if err := acc.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := acc.Fused()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("cells = %d after evicting the long profile, want 2", got.Len())
	}
	want, err := FuseProfiles([]*Profile{short, short})
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(got, want) {
		t.Error("post-shrink fuse diverged from batch")
	}
}

func TestAccumulatorFusedIsFresh(t *testing.T) {
	// Fused must hand out independent allocations: mutating one result must
	// not corrupt a later read.
	acc := NewRobustAccumulator(4, FusionPolicy{Policy: PolicyNaive})
	if err := acc.Add(randomProfile(rand.New(rand.NewSource(3)), 5)); err != nil {
		t.Fatal(err)
	}
	a, _ := acc.Fused()
	b, _ := acc.Fused()
	a.GradeRad[0] = 99
	if b.GradeRad[0] == 99 {
		t.Error("Fused results share backing arrays")
	}
}
