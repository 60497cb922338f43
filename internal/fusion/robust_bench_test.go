package fusion

import (
	"math/rand"
	"testing"
)

// benchSubmissions builds a pool of realistic 240-cell (1.2 km at 5 m)
// submissions from a rotating set of devices with per-device bias and noise.
func benchSubmissions(n, cells int) []*Profile {
	rng := rand.New(rand.NewSource(1234))
	out := make([]*Profile, n)
	for i := range out {
		bias := 0.002 * float64(i%7-3)
		out[i] = syntheticProfile(cells, 5, bias, 0.003+0.001*float64(i%5), rng)
	}
	return out
}

// benchRobustAdd measures one submission fold (RobustAccumulator.AddDevice)
// under the given policy. The accumulator is recreated every 512 adds so memory
// stays bounded without paying windowed-eviction rebuilds every op — the
// number under test is the per-submission fold itself.
func benchRobustAdd(b *testing.B, policy Policy) {
	subs := benchSubmissions(64, 240)
	devs := make([]*DeviceState, 16)
	for i := range devs {
		devs[i] = NewDeviceState()
	}
	pol := FusionPolicy{Policy: policy}.WithDefaults()
	var acc *RobustAccumulator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%512 == 0 {
			acc = NewRobustAccumulator(0, pol)
		}
		if err := acc.AddDevice(subs[i%len(subs)], devs[i%len(devs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusionAccAddRobustNaive is the plain inverse-variance fold (the
// weight machinery bypassed), against which the ≤3× robust-overhead criterion
// for the Huber and trimmed policies is read; it is documented here, not
// gated. BENCH_PR7.json records 1.87× for Huber and 1.37× for trimmed
// (5837 and 4273 vs 3129 ns/op).
func BenchmarkFusionAccAddRobustNaive(b *testing.B)   { benchRobustAdd(b, PolicyNaive) }
func BenchmarkFusionAccAddRobustHuber(b *testing.B)   { benchRobustAdd(b, PolicyHuber) }
func BenchmarkFusionAccAddRobustTrimmed(b *testing.B) { benchRobustAdd(b, PolicyTrimmed) }
