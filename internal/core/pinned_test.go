package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"roadgrade/internal/core"
	"roadgrade/internal/faultinject"
	"roadgrade/internal/road"
	"roadgrade/internal/sensors"
	"roadgrade/internal/vehicle"
)

// Pinned-bits oracle: SHA-256 digests of the exact Float64bits the batch and
// streaming estimators produce on seeded traces. Any change to the filter
// arithmetic (operation order, a skipped zero term, a fused multiply-add)
// moves a digest, so a refactor of the numerics must leave these untouched.
// The traces come from the simulator, so a deliberate change to road,
// vehicle, sensors or faultinject moves them too; re-record the digests in a
// change that leaves the estimator code untouched.
// The file is an external test package because faultinject imports fusion,
// which imports core.

// bitsDigest hashes float64 values by their IEEE-754 bit patterns.
type bitsDigest struct{ h hash.Hash }

func newBitsDigest() *bitsDigest { return &bitsDigest{h: sha256.New()} }

func (d *bitsDigest) add(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d *bitsDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// skipOffAMD64 skips digest checks on architectures whose compilers fuse
// a*b+c into one FMA instruction (arm64, ppc64le, s390x, riscv64): the
// rounding differs, so the pinned bits only hold where Go never fuses.
func skipOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned digests are recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

// accelSpike drives the accelerometer to an implausible specific force on
// isolated ticks, pushing the filter's speed out of the plausible band so
// the divergence reset runs.
type accelSpike struct{}

func (accelSpike) Name() string { return "accel-spike" }

func (accelSpike) Inject(tr *sensors.Trace, sev float64, rng *rand.Rand) {
	for i := range tr.Records {
		if rng.Float64() < 0.002*sev {
			tr.Records[i].AccelLong = math.Copysign(5e4, rng.NormFloat64())
		}
	}
}

// pinnedTraces returns a clean Red Route trace and a copy corrupted by NaN
// bursts, GPS multipath spikes and accelerometer spikes.
func pinnedTraces(t *testing.T) (*road.Road, *sensors.Trace, *sensors.Trace) {
	t.Helper()
	r, err := road.RedRoute()
	if err != nil {
		t.Fatal(err)
	}
	d := vehicle.DefaultDriver(40.0 / 3.6)
	d.LaneChangesPerKm = 2
	trip, err := vehicle.SimulateTrip(vehicle.TripConfig{Road: r, Driver: d, Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := sensors.Sample(trip, sensors.DefaultConfig(), rand.New(rand.NewSource(1005)))
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.Plan{Name: "pinned", Faults: []faultinject.Fault{
		&faultinject.NaNBurst{RatePerMin: 6}, &faultinject.GPSMultipath{}, accelSpike{},
	}}
	return r, clean, plan.Apply(clean, 1, 7)
}

func TestPinnedBitsEstimateAll(t *testing.T) {
	skipOffAMD64(t)
	r, clean, faulty := pinnedTraces(t)
	p, err := core.NewPipeline(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		trace *sensors.Trace
		want  string
	}{
		{"clean", clean, "c17360fe874a2991e871dbba93d2938c5924a725bc8a90c04c14e132bcc2ce0b"},
		{"faulty", faulty, "ccc073f3dd199776dc7db8855db827f3be2cd35982fb1c8c4289972eae43a274"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracks, err := p.EstimateAll(tc.trace, r.Line())
			if err != nil {
				t.Fatal(err)
			}
			d := newBitsDigest()
			var rejected, resets int
			for _, tr := range tracks {
				d.add(float64(tr.Source), tr.NIS, float64(tr.Rejected), float64(tr.Resets))
				d.add(tr.T...)
				d.add(tr.S...)
				d.add(tr.GradeRad...)
				d.add(tr.Var...)
				rejected += tr.Rejected
				resets += tr.Resets
			}
			if tc.trace == faulty && (rejected == 0 || resets == 0) {
				t.Errorf("faulty trace ran %d gate rejects and %d resets; both branches must run", rejected, resets)
			}
			if got := d.sum(); got != tc.want {
				t.Errorf("EstimateAll digest = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestPinnedBitsStreaming(t *testing.T) {
	skipOffAMD64(t)
	r, clean, faulty := pinnedTraces(t)
	for _, tc := range []struct {
		name  string
		trace *sensors.Trace
		want  string
	}{
		{"clean", clean, "e1633bed410c92ba57dc0129add86c4470e4a75d592e4218f55e41f5fd19c899"},
		{"faulty", faulty, "6f07758bebaad2f9b5bebd338df973a9aea815dd9085be586211ea16d572ddb4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newBitsDigest()
			var rejected, resets int
			for _, src := range []sensors.VelocitySource{sensors.SourceGPS, sensors.SourceSpeedometer, sensors.SourceCANBus} {
				st, err := core.NewStreaming(core.Config{}, r.Line(), src, tc.trace.DT)
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range tc.trace.Records {
					est, err := st.Push(rec)
					if err != nil {
						t.Fatal(err)
					}
					d.add(est.T, est.S, est.SpeedMS, est.GradeRad, est.GradeVar, est.SteerRate)
				}
				d.add(float64(st.Rejected()), float64(st.Resets()))
				rejected += st.Rejected()
				resets += st.Resets()
			}
			if tc.trace == faulty && (rejected == 0 || resets == 0) {
				t.Errorf("faulty trace ran %d gate rejects and %d resets; both branches must run", rejected, resets)
			}
			if got := d.sum(); got != tc.want {
				t.Errorf("Streaming digest = %s, want %s", got, tc.want)
			}
		})
	}
}
