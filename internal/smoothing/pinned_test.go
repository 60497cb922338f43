package smoothing_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"roadgrade/internal/lanechange"
	"roadgrade/internal/smoothing"
)

// TestPinnedBitsLoess pins the exact Float64bits of the LOESS smoother — the
// lane-change steering-profile smoothing (degree 2) plus a degree-1 Smooth
// and off-grid At evaluations — by their SHA-256 digest on a seeded noisy
// profile. Any change to the normal-equation arithmetic moves the digest.
// It is an external test package because lanechange imports smoothing, and
// it skips off amd64 because compilers for other architectures (arm64,
// ppc64le, s390x, riscv64) fuse multiply-adds, which rounds differently.
func TestPinnedBitsLoess(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned digest is recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const dt = 0.05
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 2400)
	steer := make([]float64, len(xs))
	for i := range steer {
		xs[i] = float64(i) * dt
		// Lane-change-like bumps every 20 s under gyro noise and drift.
		steer[i] = 0.08*math.Sin(2*math.Pi*xs[i]/6)*math.Exp(-math.Pow(math.Mod(xs[i], 20)-10, 2)/8) +
			0.02*rng.NormFloat64() + 0.001*xs[i]
	}
	h := sha256.New()
	add := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	smoothed, err := lanechange.SmoothProfile(dt, steer, 0)
	if err != nil {
		t.Fatal(err)
	}
	add(smoothed...)
	l1, err := smoothing.NewLoess(0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := l1.Smooth(xs, steer)
	if err != nil {
		t.Fatal(err)
	}
	add(lin...)
	l2, err := smoothing.NewLoess(0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	for x := -1.0; x < xs[len(xs)-1]+1; x += 0.37 {
		v, err := l2.At(xs, steer, x)
		if err != nil {
			t.Fatal(err)
		}
		add(v)
	}
	const want = "6651ef86385684d945eb28b2f1811495dc6b3c6bf16bf304540724d20c9320c2"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("LOESS digest = %s, want %s", got, want)
	}
}
