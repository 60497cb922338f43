package ecoroute

import (
	"sort"
	"testing"
	"time"

	"roadgrade/internal/road"
)

// The BENCH_PR9 routescale sweep: graph size (1×/10×/100× the paper's
// 164.8 km network, the 100× point being the ≥10⁵-directed-edge country
// scale) × objective (fuel, distance), plus the customization cost pair
// (full vs generation-tick incremental) and the 50×50 many-to-many grid. Networks and engines are built once per process
// and shared across benchmarks — benchmarks run sequentially, so plain maps
// suffice.

var (
	rsNets    = map[int]*road.Network{}
	rsEngines = map[int]*Engine{}
)

func rsNet(b *testing.B, scale int) *road.Network {
	b.Helper()
	if n, ok := rsNets[scale]; ok {
		return n
	}
	net, err := road.GenerateNetwork(1827, road.CountryConfig(float64(scale)))
	if err != nil {
		b.Fatalf("generate %dx network: %v", scale, err)
	}
	rsNets[scale] = net
	return net
}

// rsEngine returns a warmed engine: cost tables, contraction and the
// fuel/distance customizations are all built before any timed loop starts.
func rsEngine(b *testing.B, scale int) *Engine {
	b.Helper()
	if e, ok := rsEngines[scale]; ok {
		return e
	}
	net := rsNet(b, scale)
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		b.Fatalf("engine at %dx: %v", scale, err)
	}
	prime := [2]int{net.Edges[0].From, net.Edges[len(net.Edges)-1].To}
	for _, obj := range []Objective{Fuel, Distance} {
		if _, err := eng.Route(obj, 40, prime[0], prime[1]); err != nil {
			b.Fatalf("prime %s at %dx: %v", obj, scale, err)
		}
	}
	rsEngines[scale] = eng
	return eng
}

// rsQuery times warm point queries and reports the p95 latency alongside the
// mean, mirroring BenchmarkEcoRouteWarmQuery's acceptance metric.
func rsQuery(b *testing.B, eng *Engine, obj Objective) {
	b.Helper()
	pairs := benchPairs(eng, 1024)
	durs := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		start := time.Now()
		_, err := eng.Route(obj, 40, p[0], p[1])
		durs = append(durs, time.Since(start))
		if err != nil {
			b.Fatalf("route %v: %v", p, err)
		}
	}
	b.StopTimer()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	b.ReportMetric(float64(durs[int(0.95*float64(len(durs)-1))].Nanoseconds()), "p95-ns")
}

func BenchmarkRouteScaleCCHQuery1x(b *testing.B)   { rsQuery(b, rsEngine(b, 1), Fuel) }
func BenchmarkRouteScaleCCHQuery10x(b *testing.B)  { rsQuery(b, rsEngine(b, 10), Fuel) }
func BenchmarkRouteScaleCCHQuery100x(b *testing.B) { rsQuery(b, rsEngine(b, 100), Fuel) }

func BenchmarkRouteScaleCCHQueryDistance100x(b *testing.B) {
	rsQuery(b, rsEngine(b, 100), Distance)
}

// BenchmarkRouteScaleCCHCustomizeFull100x is the from-scratch customization
// of the fuel metric on the country graph — the denominator of the
// incremental re-customization claim.
func BenchmarkRouteScaleCCHCustomizeFull100x(b *testing.B) {
	eng := rsEngine(b, 100)
	g := eng.cchGraph()
	tb, err := eng.fresh()
	if err != nil {
		b.Fatalf("tables: %v", err)
	}
	cost := eng.costRow(Fuel, 1, tb)
	// Steady state recycles a retired table's arrays (the engine's freelist);
	// the spare ping-pongs so every op writes into already-faulted memory.
	var spare *cchWeights
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spare = g.customize(cost, tb.edgeGen, tb.version, spare)
	}
}

// BenchmarkRouteScaleCCHRecustomizeTick100x re-customizes after a one-road
// fusion tick: one edge's stamp and cost changed, everything else clean. The
// acceptance bar is ≥5× cheaper than the full pass above.
func BenchmarkRouteScaleCCHRecustomizeTick100x(b *testing.B) {
	eng := rsEngine(b, 100)
	g := eng.cchGraph()
	tb, err := eng.fresh()
	if err != nil {
		b.Fatalf("tables: %v", err)
	}
	cost := eng.costRow(Fuel, 1, tb)
	old := g.customize(cost, tb.edgeGen, tb.version, nil)
	// A tick that moved one road's estimate: new stamp, new cost.
	nextGen := append([]uint64(nil), tb.edgeGen...)
	nextGen[0]++
	nextCost := append([]float64(nil), cost...)
	nextCost[0] *= 1.5
	// As above: the spare models the engine recycling the table the tick
	// superseded, which is the steady state of generation-keyed re-fusion.
	var spare *cchWeights
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spare, _ = g.recustomize(old, nextCost, nextGen, tb.version+1, spare)
	}
}

func rsMatrixNodes(eng *Engine, n int) []int {
	pairs := benchPairs(eng, n)
	out := make([]int, n)
	for i, p := range pairs {
		out[i] = p[0]
	}
	return out
}

// The fleet-dispatch grid: 50×50 on the country graph, bucket sweeps over
// the customized hierarchy.
func BenchmarkRouteScaleCCHMatrix100x(b *testing.B) {
	eng := rsEngine(b, 100)
	nodes := rsMatrixNodes(eng, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Matrix(Fuel, 40, nodes, nodes); err != nil {
			b.Fatalf("matrix: %v", err)
		}
	}
}
