package ecoroute

import (
	"fmt"

	"roadgrade/internal/emission"
	"roadgrade/internal/obs"
)

// This file wires the operating-mode pollutant model (internal/emission)
// into the cost-table machinery. Pollutant rows live inside the same
// immutable snapshots as the fuel rows but are built lazily — one
// integration pass per bucket fills all four species — and incrementally:
// an edge whose generation stamp is unchanged from the previous snapshot
// copies its values instead of re-integrating.

var (
	obsEmisBuilds = obs.Default.Counter("ecoroute_emission_row_builds_total")
	obsEmisReused = obs.Default.Counter("ecoroute_emission_edge_cache_hits_total")
	obsEmisRecomp = obs.Default.Counter("ecoroute_emission_edge_cache_misses_total")
)

// pollutantOf maps a pollutant objective to its emission species.
func pollutantOf(obj Objective) (emission.Pollutant, bool) {
	switch obj {
	case NOx:
		return emission.NOx, true
	case CO:
		return emission.CO, true
	case HC:
		return emission.HC, true
	case PM:
		return emission.PM25, true
	}
	return 0, false
}

// gradeDependent reports whether a search metric's costs change when road
// grades change — these metrics key their CCH weight tables
// to the snapshot's cost version so a re-fusion invalidates them.
func gradeDependent(metric Objective) bool {
	if metric == Fuel {
		return true
	}
	_, ok := pollutantOf(metric)
	return ok
}

// emissionRow returns the per-edge gram cost slice of one pollutant at one
// bucket, materializing the bucket's four rows on first use.
func (e *Engine) emissionRow(sp emission.Pollutant, bucket int, tb *tables) []float64 {
	tb.emisOnce[bucket].Do(func() {
		nEdges := len(e.edges)
		rows := make([][]float64, emission.NumPollutants)
		for p := range rows {
			rows[p] = make([]float64, nEdges)
		}
		prev := tb.emisPrev[bucket]
		for i, ed := range e.edges {
			if prev != nil && tb.emisPrevGen[i] == tb.edgeGen[i] {
				for p := range rows {
					rows[p][i] = prev[p][i]
				}
				obsEmisReused.Inc()
				continue
			}
			obsEmisRecomp.Inc()
			v := e.cfg.SpeedsKmh[bucket] / 3.6 * e.cfg.classFactor(ed.Road.Class())
			g := edgeEmissionGrams(e.cfg.Emission, tb.gradeAt[i], e.lengthM[i], v, e.cfg.SampleStepM)
			for p := range rows {
				rows[p][i] = g[p]
			}
		}
		tb.emis[bucket] = rows
		tb.emisBuilt[bucket].Store(true)
		obsEmisBuilds.Inc()
	})
	return tb.emis[bucket][sp]
}

// edgeEmissionGrams integrates the operating-mode rates along one edge at a
// constant cruise speed, mirroring edgeFuelGallons cell for cell: grade is
// sampled at each stepM cell's midpoint and per-cell grams accumulate as
// rate × dt / 3600 per species. params must already be defaulted (Config
// does this once).
func edgeEmissionGrams(params emission.Params, grade func(float64) float64, lengthM, speedMS, stepM float64) emission.Grams {
	var out emission.Grams
	if lengthM <= 0 || speedMS <= 0 || stepM <= 0 {
		return out
	}
	for s := 0.0; s < lengthM; s += stepM {
		ds := stepM
		if s+ds > lengthM {
			ds = lengthM - s
		}
		if ds <= 0 {
			break
		}
		dt := ds / speedMS
		row := params.RatesGPH(speedMS, 0, grade(s+ds/2))
		for p := range out {
			out[p] += row[p] * dt / 3600
		}
	}
	return out
}

// PlanEmissions evaluates the operating-mode pollutant grams of an already
// answered plan — e.g. what a min-fuel route costs in NOx. Pollutant-
// objective plans carry this in Plan.EmisG already; for other objectives
// this walks the plan's roads over the current snapshot's emission rows.
func (e *Engine) PlanEmissions(p Plan) (emission.Grams, error) {
	bucket, err := e.bucketFor(p.SpeedKmh)
	if err != nil {
		return emission.Grams{}, err
	}
	tb, err := e.fresh()
	if err != nil {
		return emission.Grams{}, err
	}
	var out emission.Grams
	for _, sp := range emission.Pollutants() {
		row := e.emissionRow(sp, bucket, tb)
		for _, id := range p.RoadIDs {
			i, ok := e.roadEdge[id]
			if !ok {
				return emission.Grams{}, fmt.Errorf("ecoroute: plan road %q not in network", id)
			}
			out[sp] += row[i]
		}
	}
	return out, nil
}
