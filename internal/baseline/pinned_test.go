package baseline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"roadgrade/internal/road"
)

// TestPinnedBitsAltitudeEKF pins the exact Float64bits of the altitude-EKF
// baseline (3 states, 2 measurements: the filter's 2×2 innovation path) by
// their SHA-256 digest on a seeded Red Route trace. Any change to the filter
// arithmetic moves the digest. It skips off amd64 because compilers for
// other architectures (arm64, ppc64le, s390x, riscv64) fuse multiply-adds,
// which rounds differently.
func TestPinnedBitsAltitudeEKF(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned digest is recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	r, err := road.RedRoute()
	if err != nil {
		t.Fatal(err)
	}
	trace := makeTrace(t, r, 40.0/3.6, 11)
	res, err := AltitudeEKF(trace, truthS(trace), AltEKFConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for i := range res.T {
		for _, v := range []float64{res.T[i], res.S[i], res.GradeRad[i]} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	const want = "59e4e1bec9ae93655952daeea5797932b327865b39fa56eec17aa954141787b9"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("AltitudeEKF digest = %s, want %s", got, want)
	}
}
