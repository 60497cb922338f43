package ecoroute

import (
	"sync"
	"sync/atomic"
	"time"

	"roadgrade/internal/fuel"
	"roadgrade/internal/obs"
	"roadgrade/internal/road"
)

// Cost-table instrumentation. Reused counts edges whose generation stamp was
// unchanged on a refresh scan (cache hit — no re-integration); recomputed
// counts edges whose grades changed (cache miss). Warm queries that skip the
// scan entirely are the snapshot hits.
var (
	obsCostReused   = obs.Default.Counter("ecoroute_cost_cache_hits_total")
	obsCostRecomp   = obs.Default.Counter("ecoroute_cost_cache_misses_total")
	obsSnapshotHits = obs.Default.Counter("ecoroute_snapshot_hits_total")
	obsRefreshes    = obs.Default.Counter("ecoroute_refreshes_total")
	obsRefreshSecs  = obs.Default.Histogram("ecoroute_refresh_seconds", obs.LatencyBuckets)

	obsRouteSecs = map[Objective]*obs.Histogram{
		Distance: obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "distance")),
		Time:     obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "time")),
		Fuel:     obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "fuel")),
		CO2:      obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "co2")),
		NOx:      obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "nox")),
		CO:       obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "co")),
		HC:       obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "hc")),
		PM:       obs.Default.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", "pm")),
	}
)

// observeRoute times one query into the per-objective latency histogram.
func observeRoute(obj Objective) func() {
	h, ok := obsRouteSecs[obj]
	if !ok {
		return func() {}
	}
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}

// tables is one immutable cost-table snapshot. Queries read it lock-free;
// refreshes derive the next snapshot from the previous one (copying rows and
// updating only stale edges) and swap the pointer.
type tables struct {
	// gen is the source generation the snapshot reflects.
	gen uint64
	// version bumps whenever any edge cost actually changed; grade-dependent
	// CCH weight tables are keyed to it so an unchanged refresh invalidates
	// nothing.
	version uint64
	// edgeGen[e] is the grade-data stamp edge e's costs were built from.
	edgeGen []uint64
	// fuel[b][e] is edge e's gallons at bucket b's class-adjusted speed.
	fuel [][]float64
	// gradeAt[e] is the grade closure edge e's costs were integrated on,
	// captured at rebuild time. Pollutant rows are built lazily AFTER the
	// snapshot is published; reading grades from the source then could see
	// newer data than edgeGen stamps — these closures pin the snapshot's
	// view (profile snapshots are immutable).
	gradeAt []func(float64) float64

	co2Once []sync.Once
	co2     [][]float64

	// Pollutant cost rows (emis[b][sp][e], grams) are built lazily per
	// bucket — one integration pass fills all four species — so fuel-only
	// users never pay for them. emisPrev/emisPrevGen carry the previous
	// snapshot's built rows: an edge whose stamp is unchanged copies its
	// four values instead of re-integrating (bit-identical — the
	// integration is deterministic in the grade data the stamp names).
	emisOnce    []sync.Once
	emisBuilt   []atomic.Bool
	emis        [][][]float64
	emisPrev    [][][]float64
	emisPrevGen []uint64
}

// co2Row lazily scales the fuel row into grams; built at most once per
// snapshot and bucket.
func (tb *tables) co2Row(bucket int) []float64 {
	tb.co2Once[bucket].Do(func() {
		row := make([]float64, len(tb.fuel[bucket]))
		for i, g := range tb.fuel[bucket] {
			row[i] = g * fuel.CO2GramsPerGallon
		}
		tb.co2[bucket] = row
	})
	return tb.co2[bucket]
}

// atomicTables is the published-snapshot slot.
type atomicTables struct{ p atomic.Pointer[tables] }

// fresh returns a snapshot that reflects the source's current generation,
// refreshing stale edges first if needed. The warm path is one atomic load
// plus one counter comparison.
func (e *Engine) fresh() (*tables, error) {
	gen := e.src.Generation()
	if tb := e.cur.p.Load(); tb != nil && tb.gen == gen {
		obsSnapshotHits.Inc()
		return tb, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Re-check under the lock: another query may have refreshed already.
	// Re-read the generation so a submission that landed while we waited is
	// folded into this refresh rather than triggering another.
	gen = e.src.Generation()
	if tb := e.cur.p.Load(); tb != nil && tb.gen == gen {
		return tb, nil
	}
	start := time.Now()
	next := e.rebuild(e.cur.p.Load(), gen)
	e.cur.p.Store(next)
	obsRefreshes.Inc()
	obsRefreshSecs.Observe(time.Since(start).Seconds())
	return next, nil
}

// rebuild derives the next snapshot from prev, re-integrating only edges
// whose grade-data stamp changed. O(edges) stamp compares, O(changed ×
// buckets × length/step) integration.
func (e *Engine) rebuild(prev *tables, gen uint64) *tables {
	nEdges := len(e.edges)
	nBuckets := len(e.cfg.SpeedsKmh)
	next := &tables{
		gen:       gen,
		edgeGen:   make([]uint64, nEdges),
		fuel:      make([][]float64, nBuckets),
		gradeAt:   make([]func(float64) float64, nEdges),
		co2Once:   make([]sync.Once, nBuckets),
		co2:       make([][]float64, nBuckets),
		emisOnce:  make([]sync.Once, nBuckets),
		emisBuilt: make([]atomic.Bool, nBuckets),
		emis:      make([][][]float64, nBuckets),
		emisPrev:  make([][][]float64, nBuckets),
	}
	for b := 0; b < nBuckets; b++ {
		next.fuel[b] = make([]float64, nEdges)
		if prev != nil {
			copy(next.fuel[b], prev.fuel[b])
		}
	}
	if prev != nil {
		copy(next.edgeGen, prev.edgeGen)
		next.version = prev.version
		// Carry the previous snapshot's materialized pollutant rows so the
		// lazy build only re-integrates stamped edges. The carry is one
		// level deep: prev's rows are keyed by prev.edgeGen, so only rows
		// prev actually built (not rows it merely carried) are usable. A
		// bucket mid-build right now reads as not-built — correct, merely
		// a full integration pass later.
		next.emisPrevGen = prev.edgeGen
		for b := 0; b < nBuckets; b++ {
			if prev.emisBuilt[b].Load() {
				next.emisPrev[b] = prev.emis[b]
			}
		}
	}
	changed := 0
	for i, ed := range e.edges {
		eg := e.src.Edge(ed.Road, e.siblingRoad(i))
		next.gradeAt[i] = eg.At
		if prev != nil && eg.Gen == next.edgeGen[i] {
			obsCostReused.Inc()
			continue
		}
		obsCostRecomp.Inc()
		next.edgeGen[i] = eg.Gen
		for b := 0; b < nBuckets; b++ {
			v := e.cfg.SpeedsKmh[b] / 3.6 * e.cfg.classFactor(ed.Road.Class())
			next.fuel[b][i] = edgeFuelGallons(e.cfg.Params, eg.At, e.lengthM[i], v, e.cfg.SampleStepM)
		}
		changed++
	}
	if changed > 0 {
		next.version++
	}
	return next
}

// siblingRoad returns the opposite-direction road of edge i, or nil.
func (e *Engine) siblingRoad(i int) *road.Road {
	if s := e.sibling[i]; s >= 0 {
		return e.edges[s].Road
	}
	return nil
}

// edgeFuelGallons integrates the Eq. (7) rate along one edge at a constant
// cruise speed: grade is sampled at the midpoint of each stepM cell and the
// per-cell gallons accumulate exactly like fuel.TripFuel's per-sample terms
// (rate × dt / 3600), so a cost equals TripFuel over the same samples
// bit-for-bit.
func edgeFuelGallons(p fuel.VSPParams, grade func(float64) float64, lengthM, speedMS, stepM float64) float64 {
	if lengthM <= 0 || speedMS <= 0 || stepM <= 0 {
		return 0
	}
	var gallons float64
	for s := 0.0; s < lengthM; s += stepM {
		ds := stepM
		if s+ds > lengthM {
			ds = lengthM - s
		}
		if ds <= 0 {
			break
		}
		dt := ds / speedMS
		gallons += p.RateGPH(speedMS, 0, grade(s+ds/2)) * dt / 3600
	}
	return gallons
}
