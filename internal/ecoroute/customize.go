package ecoroute

import (
	"math"
	"sync/atomic"

	"roadgrade/internal/obs"
)

// This file is phase 2 of the CCH (DESIGN.md §13): customization. It maps one
// per-edge cost row onto the contracted topology, producing the upward and
// downward weight of every arc by the basic customization — one ascending
// pass of lower-triangle relaxations. Because fusion ticks stamp exactly the
// edges whose grades changed (tables.edgeGen, the PR 5 invalidation signal),
// re-customization after a tick is incremental: only arcs carrying a stamped
// edge are re-derived, and changes propagate through the dependents index to
// just the triangles that can feel them.

var (
	obsCCHCustFull = obs.Default.Counter("ecoroute_cch_customizations_total", obs.L("kind", "full"))
	obsCCHCustIncr = obs.Default.Counter("ecoroute_cch_customizations_total", obs.L("kind", "incremental"))
	obsCCHArcs     = obs.Default.Counter("ecoroute_cch_arcs_recomputed_total")
)

// cchWeights is one immutable customized metric: per-arc upward (lo→hi) and
// downward (hi→lo) shortest-path weights plus the via encoding that unpacks
// them back into original edges. Queries read it lock-free; a re-fusion
// builds a successor (incrementally) and the cache swaps the pointer.
//
// via values: -1 = unreachable in that direction; v <= -2 = the original
// edge with index -2-v; v >= 0 = the flat triangle index whose two arcs the
// weight decomposes into.
type cchWeights struct {
	up, dn       []float64
	viaUp, viaDn []int32
	// edgeGen is the tables.edgeGen stamp row this metric was customized
	// against (shared with the immutable snapshot); diffing it against a new
	// snapshot's row yields exactly the dirty edges.
	edgeGen []uint64
	version uint64
	// refs counts in-flight readers. cchWeightsFor increments it under the
	// cache mutex before handing the table out; every reader releases when its
	// search ends. A superseded table whose count has drained to zero can have
	// its ~24 bytes/arc of arrays recycled into the next customization —
	// without recycling, the copy-on-write allocation (fresh pages, faulted in
	// during the copy) costs more than re-deriving the dirty arcs themselves.
	refs atomic.Int32
}

// release marks the end of one reader's use of the table.
func (w *cchWeights) release() { w.refs.Add(-1) }

// newCCHWeights returns a weight table over spare's arrays when one is
// available (recycled, already-faulted memory) or freshly allocated ones.
func newCCHWeights(nArcs int, edgeGen []uint64, version uint64, spare *cchWeights) *cchWeights {
	w := spare
	if w == nil {
		w = &cchWeights{
			up: make([]float64, nArcs), dn: make([]float64, nArcs),
			viaUp: make([]int32, nArcs), viaDn: make([]int32, nArcs),
		}
	}
	w.edgeGen, w.version = edgeGen, version
	return w
}

// cchCustStats records how the most recent customization ran, for tests and
// the routescale experiment.
type cchCustStats struct {
	full           bool
	recomputedArcs int
	totalArcs      int
}

// lastCustStats returns the stats of the engine's most recent customization.
func (e *Engine) lastCustStats() cchCustStats {
	e.cchWMu.Lock()
	defer e.cchWMu.Unlock()
	return e.lastCust
}

// CustStats reports how a CCH engine's most recent customization ran — the
// observable form of the generation-keyed invalidation claim: after a fusion
// tick, RecomputedArcs ≪ TotalArcs.
type CustStats struct {
	// Full is true for a from-scratch customization, false for an
	// incremental re-customization seeded by a superseded table.
	Full bool
	// RecomputedArcs counts arcs whose weights were re-derived;
	// TotalArcs is the hierarchy's arc count (shortcuts included).
	RecomputedArcs, TotalArcs int
}

// LastCustomization returns the most recent customization's stats. Zero
// value until a routing query has run.
func (e *Engine) LastCustomization() CustStats {
	s := e.lastCustStats()
	return CustStats{Full: s.full, RecomputedArcs: s.recomputedArcs, TotalArcs: s.totalArcs}
}

// computeArc derives arc a's weights from scratch: the cheapest original edge
// in each direction, then every lower triangle (both referenced arcs have
// smaller indices, so in an ascending pass their weights are final). Reports
// whether anything changed versus what w currently holds.
func (g *cch) computeArc(w *cchWeights, cost []float64, a int32) bool {
	up, dn := math.Inf(1), math.Inf(1)
	vUp, vDn := int32(-1), int32(-1)
	for k := g.upEdgeOff[a]; k < g.upEdgeOff[a+1]; k++ {
		ei := g.upEdge[k]
		if c := cost[ei]; c < up {
			up, vUp = c, -2-ei
		}
	}
	for k := g.dnEdgeOff[a]; k < g.dnEdgeOff[a+1]; k++ {
		ei := g.dnEdge[k]
		if c := cost[ei]; c < dn {
			dn, vDn = c, -2-ei
		}
	}
	for t := g.triOff[a]; t < g.triOff[a+1]; t++ {
		lo, hi := g.triLo[t], g.triHi[t]
		// Arc {u,v} via x: u→x→v uses dn of {x,u} then up of {x,v};
		// v→x→u uses dn of {x,v} then up of {x,u}.
		if c := w.dn[lo] + w.up[hi]; c < up {
			up, vUp = c, t
		}
		if c := w.dn[hi] + w.up[lo]; c < dn {
			dn, vDn = c, t
		}
	}
	changed := math.Float64bits(up) != math.Float64bits(w.up[a]) ||
		math.Float64bits(dn) != math.Float64bits(w.dn[a]) ||
		vUp != w.viaUp[a] || vDn != w.viaDn[a]
	w.up[a], w.dn[a] = up, dn
	w.viaUp[a], w.viaDn[a] = vUp, vDn
	return changed
}

// customize runs the full basic customization: every arc, ascending. spare,
// when non-nil, is a drained retired table whose arrays are reused.
func (g *cch) customize(cost []float64, edgeGen []uint64, version uint64, spare *cchWeights) *cchWeights {
	nArcs := len(g.arcLo)
	w := newCCHWeights(nArcs, edgeGen, version, spare)
	for a := int32(0); a < int32(nArcs); a++ {
		g.computeArc(w, cost, a)
	}
	return w
}

// recustomize derives a successor weight table from old after a generation
// tick: diff the stamp rows for dirty edges, re-derive their arcs ascending,
// and fan actual changes out through the dependents index. Arc indices only
// grow along dependency edges, so one ascending sweep settles everything.
// old is never mutated — in-flight queries keep reading it. spare, when
// non-nil, supplies recycled arrays for the successor (it must not alias old).
// Returns the new table and the number of arcs re-derived.
func (g *cch) recustomize(old *cchWeights, cost []float64, edgeGen []uint64, version uint64, spare *cchWeights) (*cchWeights, int) {
	nArcs := len(g.arcLo)
	w := newCCHWeights(nArcs, edgeGen, version, spare)
	copy(w.up, old.up)
	copy(w.dn, old.dn)
	copy(w.viaUp, old.viaUp)
	copy(w.viaDn, old.viaDn)
	dirty := make([]bool, nArcs)
	any := false
	for i, gen := range edgeGen {
		if old.edgeGen[i] != gen {
			if a := g.edgeArc[i]; a >= 0 {
				dirty[a] = true
				any = true
			}
		}
	}
	if !any {
		return w, 0
	}
	recomputed := 0
	for a := int32(0); a < int32(nArcs); a++ {
		if !dirty[a] {
			continue
		}
		recomputed++
		if g.computeArc(w, cost, a) {
			for k := g.depOff[a]; k < g.depOff[a+1]; k++ {
				dirty[g.depArc[k]] = true
			}
		}
	}
	return w, recomputed
}

// cchRetiredCap bounds the freelist of drained superseded tables; beyond it
// the GC takes them (each is ~24 bytes per arc).
const cchRetiredCap = 4

// cchRetire queues a table no longer reachable from the cache for recycling.
// Caller holds cchWMu.
func (e *Engine) cchRetire(w *cchWeights) {
	if len(e.cchRetired) < cchRetiredCap {
		e.cchRetired = append(e.cchRetired, w)
	}
}

// cchSpare pops a retired table with no remaining readers, or nil. Caller
// holds cchWMu; because readers only acquire tables under that mutex and a
// retired table is out of the cache map, refs==0 here is final.
func (e *Engine) cchSpare() *cchWeights {
	for i, w := range e.cchRetired {
		if w.refs.Load() == 0 {
			e.cchRetired = append(e.cchRetired[:i], e.cchRetired[i+1:]...)
			return w
		}
	}
	return nil
}

// weightKey identifies one customized weight table: the search metric, the
// speed bucket, and (for grade-dependent metrics) the cost-table version the
// weights were customized on.
type weightKey struct {
	metric  Objective
	bucket  int
	version uint64
}

// cchWeightsFor returns (customizing if needed) the weight table for a metric
// and bucket on the given snapshot: Distance ignores the bucket,
// Distance/Time never invalidate, grade-dependent metrics (Fuel and the
// pollutants) are keyed to the snapshot's cost version. A superseded grade-dependent table is not
// discarded — it seeds the incremental re-customization, then joins the
// retired freelist so its arrays back a later customization.
//
// The returned table has one reader reference held for the caller, who must
// release() it when the search is done.
func (e *Engine) cchWeightsFor(metric Objective, bucket int, tb *tables) *cchWeights {
	g := e.cchGraph()
	key := weightKey{metric: metric, bucket: bucket}
	switch {
	case metric == Distance:
		key.bucket = 0 // distance costs are bucket-independent
	case gradeDependent(metric):
		key.version = tb.version
	}
	e.cchWMu.Lock()
	defer e.cchWMu.Unlock()
	if w, ok := e.cchW[key]; ok {
		w.refs.Add(1)
		return w
	}
	cost := e.costRow(metric, bucket, tb)
	stats := cchCustStats{totalArcs: len(g.arcLo)}
	var w *cchWeights
	if gradeDependent(metric) {
		// The freshest superseded version for this metric and bucket seeds
		// the incremental path; it and any older ones are retired for
		// recycling.
		var prev *cchWeights
		for k, old := range e.cchW {
			if k.metric == metric && k.bucket == key.bucket {
				if prev == nil || old.version > prev.version {
					if prev != nil {
						e.cchRetire(prev)
					}
					prev = old
				} else {
					e.cchRetire(old)
				}
				delete(e.cchW, k)
			}
		}
		if prev != nil {
			w, stats.recomputedArcs = g.recustomize(prev, cost, tb.edgeGen, tb.version, e.cchSpare())
			e.cchRetire(prev)
			obsCCHCustIncr.Inc()
		}
	}
	if w == nil {
		w = g.customize(cost, tb.edgeGen, tb.version, e.cchSpare())
		stats.full = true
		stats.recomputedArcs = stats.totalArcs
		obsCCHCustFull.Inc()
	}
	obsCCHArcs.Add(uint64(stats.recomputedArcs))
	e.lastCust = stats
	e.cchW[key] = w
	w.refs.Add(1)
	return w
}
