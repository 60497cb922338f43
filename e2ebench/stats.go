package main

// The benchmark's own arithmetic: percentiles with their sample-count rule,
// open-loop lateness, and the upload → route visibility matcher.

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile returns the q-quantile of xs by nearest rank: the k-th smallest
// sample with k = ⌈q·n⌉. It fails unless at least minBeyond samples lie
// beyond that rank, so a p99 needs at least 1000 samples.
func quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %v of %d samples is undefined", q, n)
	}
	k := int(math.Ceil(q * float64(n)))
	if beyond := n - k; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k-1], nil
}

// pct names one reported percentile of a sample.
type pct struct {
	name string
	xs   []float64
	q    float64
}

// setQuantiles records each percentile in the report, failing on the first
// that the sample-count rule refuses.
func setQuantiles(rep *report, ps ...pct) error {
	for _, p := range ps {
		v, err := quantile(p.xs, p.q)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		rep.set(p.name, v)
	}
	return nil
}

// median is the 0.5 quantile.
func median(xs []float64) (float64, error) { return quantile(xs, 0.5) }

// lateness is how long after its due time an open-loop request was sent.
// A request is never sent early, so lateness is never negative.
func lateness(due, sent time.Duration) time.Duration {
	if sent < due {
		return 0
	}
	return sent - due
}

// interval is one timed call, as offsets from the start of the timed phase.
type interval struct{ start, end time.Duration }

// upload is what the visibility matcher needs about one accepted upload:
// when it was due, and when its fold was seen in the store.
type upload struct {
	due, visible time.Duration
}

// firstRouteAfter returns, for each upload, the index of the first route
// that started at or after its fold was visible, or -1 when the run ended
// first. routes must be sorted by start.
func firstRouteAfter(uploads []upload, routes []interval) []int {
	out := make([]int, len(uploads))
	for k, u := range uploads {
		i := sort.Search(len(routes), func(i int) bool { return routes[i].start >= u.visible })
		if i == len(routes) {
			i = -1
		}
		out[k] = i
	}
	return out
}

// visibleLatency is how long an upload took to reach a route answer: from
// its due time until its fold was visible, plus the round trip of the route
// that first read it. The wait between the two belongs to the query
// schedule, not to the program, and is left out.
func visibleLatency(u upload, r interval) time.Duration {
	return u.visible - u.due + r.end - r.start
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// okPct is the share of attempted operations that succeeded.
func okPct(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return 100 * float64(attempted-failed) / float64(attempted)
}
