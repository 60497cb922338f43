package main

// Route quality: the true-fuel regret of min-fuel routes planned on an
// estimated map instead of the ground truth, over a fixed O/D panel.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"roadgrade/internal/ecoroute"
	"roadgrade/internal/fuel"
	"roadgrade/internal/fusion"
	"roadgrade/internal/road"
)

const (
	panelPairs = 200  // O/D pairs in the regret panel
	regretKmh  = 40.0 // cruise speed the panel is planned at
)

// mapStore holds an estimated gradient map as the routing engine's store,
// so ecoroute.CloudSource serves it exactly as it serves the cloud's
// (reverse-direction fallback included). Every road is at generation 0.
type mapStore map[string]*fusion.Profile

func (m mapStore) StoreGeneration() uint64 { return 0 }

func (m mapStore) FusedGeneration(roadID string) (*fusion.Profile, uint64, error) {
	if p, ok := m[roadID]; ok {
		return p, 0, nil
	}
	return nil, 0, fmt.Errorf("road %q is not mapped", roadID)
}

// odPairs draws n node pairs from the seed, keeping only connected ones
// (about one random city pair in twenty has no path).
func odPairs(eng *ecoroute.Engine, net *road.Network, seed int64, n int) ([][2]int, error) {
	rng := rand.New(rand.NewSource(seed))
	var out [][2]int
	for tries := 0; len(out) < n; tries++ {
		if tries > 20*n {
			return nil, fmt.Errorf("only %d of %d O/D pairs are connected", len(out), n)
		}
		a := net.Nodes[rng.Intn(len(net.Nodes))].ID
		b := net.Nodes[rng.Intn(len(net.Nodes))].ID
		if a == b {
			continue
		}
		_, err := eng.Route(ecoroute.Distance, regretKmh, a, b)
		if errors.Is(err, ecoroute.ErrNoPath) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, [2]int{a, b})
	}
	return out, nil
}

// classSpeedFactor mirrors the routing engine's default per-class cruise
// speed factors, so a path's true fuel is integrated at the speeds the
// engine costed it at.
var classSpeedFactor = map[road.Class]float64{
	road.ClassArterial:  1.25,
	road.ClassCollector: 1.0,
	road.ClassLocal:     0.85,
}

// trueFuel integrates the Eq. (7) fuel rate over a path's roads on the true
// gradients, sampling each 5 m cell at its midpoint as the engine does.
func trueFuel(roads map[string]*road.Road, ids []string, kmh float64) (float64, error) {
	params := fuel.TableII()
	var gallons float64
	for _, id := range ids {
		r, ok := roads[id]
		if !ok {
			return 0, fmt.Errorf("route uses unknown road %q", id)
		}
		v := kmh / 3.6 * classSpeedFactor[r.Class()]
		length := r.Length()
		var edge float64
		for s := 0.0; s < length; s += gridM {
			ds := math.Min(gridM, length-s)
			dt := ds / v
			edge += params.RateGPH(v, 0, r.GradeAt(s+ds/2)) * dt / 3600
		}
		gallons += edge
	}
	return gallons, nil
}

// regretPct is 100·(Σ true fuel of the routes planned by plan − Σ true fuel
// of the truth-optimal routes) / Σ truth-optimal fuel over the panel.
func regretPct(net *road.Network, truth *ecoroute.Engine, pairs [][2]int,
	plan func(from, to int) ([]string, error)) (float64, error) {
	roads := make(map[string]*road.Road, len(net.Edges))
	for _, e := range net.Edges {
		roads[e.Road.ID()] = e.Road
	}
	var got, best float64
	for _, p := range pairs {
		opt, err := truth.Route(ecoroute.Fuel, regretKmh, p[0], p[1])
		if err != nil {
			return 0, fmt.Errorf("truth route %d→%d: %w", p[0], p[1], err)
		}
		ids, err := plan(p[0], p[1])
		if err != nil {
			return 0, fmt.Errorf("route %d→%d: %w", p[0], p[1], err)
		}
		g, err := trueFuel(roads, ids, regretKmh)
		if err != nil {
			return 0, err
		}
		b, err := trueFuel(roads, opt.RoadIDs, regretKmh)
		if err != nil {
			return 0, err
		}
		// The benchmark's integration must agree with the engine's truth
		// costs, or the regret would compare different models.
		if math.Abs(b-opt.FuelGal) > 1e-9*math.Max(1, opt.FuelGal) {
			return 0, fmt.Errorf("true fuel of %d→%d is %v gal here but %v gal in the engine", p[0], p[1], b, opt.FuelGal)
		}
		got += g
		best += b
	}
	if best <= 0 {
		return 0, errors.New("the panel burns no fuel")
	}
	return 100 * (got - best) / best, nil
}
