package main

import (
	"testing"
	"time"
)

func TestQuantileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	// k = ⌈0.99·1000⌉ = 990: the 990th smallest, with 10 samples beyond.
	if got, err := quantile(xs, 0.99); err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if _, err := quantile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if got, err := median(xs[:21]); err != nil || got != 11 {
		t.Fatalf("median of 1..21 = %v, %v; want 11", got, err)
	}
	if _, err := median(xs[:19]); err == nil {
		t.Fatal("median of 19 samples has 9 beyond it and must be refused")
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Fatal("quantile of no samples must be refused")
	}
}

func TestQuantileIgnoresOrderAndKeepsInput(t *testing.T) {
	xs := []float64{5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}
	in := append([]float64(nil), xs...)
	if got, err := median(xs); err != nil || got != 11 {
		t.Fatalf("median = %v, %v; want 11", got, err)
	}
	for i := range xs {
		if xs[i] != in[i] {
			t.Fatal("quantile reordered its input")
		}
	}
}

func TestLateness(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct{ due, sent, want time.Duration }{
		{10 * ms, 10 * ms, 0},
		{10 * ms, 13 * ms, 3 * ms},
		{10 * ms, 9 * ms, 0}, // clock reads on either side of the sleep
	} {
		if got := lateness(c.due, c.sent); got != c.want {
			t.Errorf("lateness(%v, %v) = %v, want %v", c.due, c.sent, got, c.want)
		}
	}
}

func TestFirstRouteAfter(t *testing.T) {
	ms := time.Millisecond
	routes := []interval{
		{start: 1 * ms, end: 3 * ms},
		{start: 5 * ms, end: 9 * ms},
		{start: 6 * ms, end: 7 * ms}, // ends first, but started later
		{start: 20 * ms, end: 22 * ms},
	}
	uploads := []upload{
		{due: 0, visible: 2 * ms},        // first route starting at/after 2 ms is the 5 ms one
		{due: 4 * ms, visible: 5 * ms},   // a route starting exactly at visibility counts
		{due: 10 * ms, visible: 12 * ms}, // waits for the 20 ms route
		{due: 21 * ms, visible: 25 * ms}, // no later route
	}
	got := firstRouteAfter(uploads, routes)
	want := []int{1, 1, 3, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("upload %d: route %d, want %d", i, got[i], want[i])
		}
	}
	// Visibility leaves out the wait for the route: 2 ms to the fold plus
	// the 5 ms route's 4 ms round trip, not the 9 ms to that route's end.
	for i, c := range []struct {
		upload, route int
		want          time.Duration
	}{
		{0, 1, 6 * ms},
		{1, 1, 5 * ms},
		{2, 3, 4 * ms},
	} {
		if got := visibleLatency(uploads[c.upload], routes[c.route]); got != c.want {
			t.Errorf("case %d: visible after %v, want %v", i, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.drive", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.adjust", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "core.estimate_track", Start: 40, End: 90},
		{ID: 4, Parent: 1, Name: "fusion.fuse_tracks", Start: 90, End: 95},
	}
	got := selfTimes(spans)
	for layer, want := range map[string]time.Duration{"bench": 15, "core": 80, "fusion": 5} {
		if got[layer] != want {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], want)
		}
	}
}
