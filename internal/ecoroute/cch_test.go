package ecoroute

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"roadgrade/internal/geo"
	"roadgrade/internal/road"
)

// tickSource serves ground-truth grades except for one flagged road, whose
// grades (and stamp) change with every generation bump — the shape of a
// cloud re-fusion that actually moved an estimate.
type tickSource struct {
	gen    uint64
	roadID string
}

func (s *tickSource) Generation() uint64 { return s.gen }

func (s *tickSource) Edge(fwd, _ *road.Road) EdgeGrades {
	if fwd.ID() == s.roadID {
		gen := s.gen
		return EdgeGrades{
			Gen: gen + 1,
			At:  func(at float64) float64 { return fwd.GradeAt(at) + 0.01*float64(gen) },
		}
	}
	return EdgeGrades{Gen: 1, At: fwd.GradeAt}
}

// TestCCHMatchesDijkstra is the CCH acceptance property (mirroring the PR 5
// bidi≡Dijkstra gate): over ≥40 random O/D pairs and all four objectives,
// the elimination-tree query's cost must equal the plain Dijkstra
// reference's to the last bit.
func TestCCHMatchesDijkstra(t *testing.T) {
	net, err := road.GenerateNetwork(43, road.NetworkConfig{TargetStreetKM: 12})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for checked < 40 {
		from := net.Nodes[rng.Intn(len(net.Nodes))].ID
		to := net.Nodes[rng.Intn(len(net.Nodes))].ID
		if from == to {
			continue
		}
		for _, obj := range Objectives() {
			fast, errF := eng.Route(obj, 40, from, to)
			ref, errR := eng.RouteDijkstra(obj, 40, from, to)
			if (errF == nil) != (errR == nil) {
				t.Fatalf("%s %d→%d: search disagreement: cch err %v, reference err %v", obj, from, to, errF, errR)
			}
			if errF != nil {
				if !errors.Is(errF, ErrNoPath) {
					t.Fatalf("%s %d→%d: %v", obj, from, to, errF)
				}
				continue
			}
			if math.Float64bits(fast.Cost) != math.Float64bits(ref.Cost) {
				t.Errorf("%s %d→%d: cch cost %.17g != Dijkstra cost %.17g",
					obj, from, to, fast.Cost, ref.Cost)
			}
			if fast.Nodes[0] != from || fast.Nodes[len(fast.Nodes)-1] != to {
				t.Errorf("%s %d→%d: unpacked path endpoints %v", obj, from, to, fast.Nodes)
			}
		}
		checked++
	}
}

// TestCCHRecustomizeAfterTick: after a fusion generation tick that changes
// one road's grades, CCH answers must still be bit-identical to Dijkstra on
// the new costs, and the customization that got there must have been
// incremental — a small fraction of the arcs re-derived, not a full pass.
func TestCCHRecustomizeAfterTick(t *testing.T) {
	net, err := road.GenerateNetwork(43, road.NetworkConfig{TargetStreetKM: 80})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	src := &tickSource{roadID: net.Edges[0].Road.ID()}
	eng, err := NewEngine(net, src, Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	pairs := [][2]int{
		{net.Edges[0].From, net.Edges[len(net.Edges)-1].To},
		{net.Nodes[0].ID, net.Nodes[len(net.Nodes)-1].ID},
		{net.Edges[0].To, net.Nodes[len(net.Nodes)/2].ID},
	}
	route := func(tag string) {
		t.Helper()
		for _, p := range pairs {
			fast, errF := eng.Route(Fuel, 40, p[0], p[1])
			ref, errR := eng.RouteDijkstra(Fuel, 40, p[0], p[1])
			if (errF == nil) != (errR == nil) {
				t.Fatalf("%s %v: cch err %v, reference err %v", tag, p, errF, errR)
			}
			if errF != nil {
				continue
			}
			if math.Float64bits(fast.Cost) != math.Float64bits(ref.Cost) {
				t.Errorf("%s %v: cch cost %.17g != Dijkstra %.17g", tag, p, fast.Cost, ref.Cost)
			}
		}
	}
	route("pre-tick")
	st := eng.lastCustStats()
	if !st.full || st.recomputedArcs != st.totalArcs {
		t.Fatalf("first customization should be full: %+v", st)
	}

	src.gen++
	route("post-tick")
	st = eng.lastCustStats()
	if st.full {
		t.Fatalf("post-tick customization ran full instead of incremental: %+v", st)
	}
	if st.recomputedArcs == 0 {
		t.Fatal("post-tick customization re-derived nothing despite a changed edge")
	}
	if st.recomputedArcs >= st.totalArcs/5 {
		t.Fatalf("incremental customization touched %d of %d arcs — not incremental",
			st.recomputedArcs, st.totalArcs)
	}
}

// disconnectedNet builds two islands (1↔2 and 3↔4) to exercise no-path
// handling in both the point query and the matrix.
func disconnectedNet(t *testing.T) *road.Network {
	t.Helper()
	grades := constGrades(10, 0)
	lengthM := 5 * float64(len(grades))
	a, b := geo.ENU{E: 0, N: 0}, geo.ENU{E: lengthM, N: 0}
	c, d := geo.ENU{E: 0, N: 10 * lengthM}, geo.ENU{E: lengthM, N: 10 * lengthM}
	net, err := road.NewNetwork(
		[]road.Node{{ID: 1, Pos: a}, {ID: 2, Pos: b}, {ID: 3, Pos: c}, {ID: 4, Pos: d}},
		[]*road.Edge{
			{From: 1, To: 2, Road: slopedRoad(t, "st-a-0", a, b, grades)},
			{From: 2, To: 1, Road: slopedRoad(t, "st-a-1", b, a, reversed(grades))},
			{From: 3, To: 4, Road: slopedRoad(t, "st-b-0", c, d, grades)},
			{From: 4, To: 3, Road: slopedRoad(t, "st-b-1", d, c, reversed(grades))},
		},
	)
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	return net
}

func TestCCHNoPath(t *testing.T) {
	eng, err := NewEngine(disconnectedNet(t), TruthSource{}, Config{SpeedsKmh: []float64{40}})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if _, err := eng.Route(Fuel, 40, 1, 3); !errors.Is(err, ErrNoPath) {
		t.Errorf("disconnected cch route: got %v, want ErrNoPath", err)
	}
	if plan, err := eng.Route(Fuel, 40, 1, 2); err != nil || len(plan.RoadIDs) != 1 {
		t.Errorf("same-island cch route: %+v, %v", plan, err)
	}
	grid, err := eng.Matrix(Fuel, 40, []int{1, 3}, []int{2, 4})
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	if math.IsInf(grid[0][0], 1) || !math.IsInf(grid[0][1], 1) ||
		!math.IsInf(grid[1][0], 1) || math.IsInf(grid[1][1], 1) {
		t.Errorf("matrix reachability wrong: %v", grid)
	}
}

// TestCCHMatrixMatchesPointQueries: the bucket-based many-to-many grid must
// agree with the Dijkstra reference's point answers.
func TestCCHMatrixMatchesPointQueries(t *testing.T) {
	net, err := road.GenerateNetwork(47, road.NetworkConfig{TargetStreetKM: 8})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	var nodes []int
	seen := map[int]bool{}
	for len(nodes) < 8 {
		id := net.Nodes[rng.Intn(len(net.Nodes))].ID
		if !seen[id] {
			seen[id] = true
			nodes = append(nodes, id)
		}
	}
	for _, obj := range []Objective{Distance, Time, Fuel, CO2} {
		grid, err := eng.Matrix(obj, 40, nodes, nodes)
		if err != nil {
			t.Fatalf("matrix %s: %v", obj, err)
		}
		for i, from := range nodes {
			for j, to := range nodes {
				if from == to {
					if grid[i][j] != 0 {
						t.Errorf("%s: diagonal [%d][%d] = %v, want 0", obj, i, j, grid[i][j])
					}
					continue
				}
				plan, err := eng.RouteDijkstra(obj, 40, from, to)
				if errors.Is(err, ErrNoPath) {
					if !math.IsInf(grid[i][j], 1) {
						t.Errorf("%s %d→%d: matrix %v, want +Inf", obj, from, to, grid[i][j])
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s %d→%d: %v", obj, from, to, err)
				}
				if diff := math.Abs(grid[i][j] - plan.Cost); diff > 1e-9*math.Max(1, plan.Cost) {
					t.Errorf("%s %d→%d: matrix cost %.12g, route cost %.12g", obj, from, to, grid[i][j], plan.Cost)
				}
			}
		}
	}
}

// TestMatrixCtxCancel: a canceled context must abort the matrix promptly with
// the context's error instead of finishing the grid.
func TestMatrixCtxCancel(t *testing.T) {
	net, err := road.GenerateNetwork(43, road.NetworkConfig{TargetStreetKM: 40})
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	var nodes []int
	for i := 0; i < 30; i++ {
		nodes = append(nodes, net.Nodes[i*len(net.Nodes)/30].ID)
	}
	eng, err := NewEngine(net, TruthSource{}, Config{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	// Already-canceled context: no row may be computed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.MatrixCtx(ctx, Fuel, 40, nodes, nodes); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled matrix: got %v, want context.Canceled", err)
	}
	// Mid-run cancel: the call must return well before a full grid would.
	ctx2, cancel2 := context.WithCancel(context.Background())
	timer := time.AfterFunc(10*time.Millisecond, cancel2)
	start := time.Now()
	_, err = eng.MatrixCtx(ctx2, Fuel, 40, nodes, nodes)
	elapsed := time.Since(start)
	timer.Stop()
	cancel2()
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: unexpected error %v", err)
	}
	// err == nil means the grid beat the timer, which is fine for speed;
	// but a canceled run must not have kept grinding for seconds.
	if err != nil && elapsed > 2*time.Second {
		t.Errorf("canceled matrix still ran %v", elapsed)
	}
}
