package main

// citymap: the paper's own workload (the Fig. 9/10 recipe) as a closed-loop
// batch. Every street of the city is driven over several seeded passes; a
// pool of workers runs, for each drive, the live streaming estimator and
// then the post-drive estimate; the fused per-street map is then turned
// into fuel, CO₂ and pollutant maps. The phone estimator (core) does nearly
// all the work; cloud and ecoroute do none.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"roadgrade/internal/core"
	"roadgrade/internal/ecoroute"
	"roadgrade/internal/emission"
	"roadgrade/internal/fuel"
	"roadgrade/internal/fusion"
	"roadgrade/internal/groundtruth"
	"roadgrade/internal/road"
)

const (
	citymapPasses = 3 // drives per street in the pool
	setupRepeats  = 3 // set-ups per run; setup_s is their median
)

// citymapInputs is everything set-up produces.
type citymapInputs struct {
	city   *city
	drives []drive
	refs   []*groundtruth.Reference
	pipe   *core.Pipeline
	truth  *ecoroute.Engine
	pairs  [][2]int
}

func citymapSetup(seed int64) (*citymapInputs, error) {
	c, err := newCity()
	if err != nil {
		return nil, err
	}
	plan := planDrives(c, seed, citymapPasses)
	in := &citymapInputs{city: c, drives: make([]drive, len(plan))}
	err = parallel(len(plan), workers(), func(i int) error {
		r := c.streets[plan[i].street]
		trc, err := simulateDrive(r, plan[i].tripSeed, plan[i].traceSeed)
		if err != nil {
			return err
		}
		in.drives[i] = drive{id: i, street: plan[i].street, road: r, trace: trc, km: r.Length() / 1000}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if in.refs, err = references(c, seed+1, workers()); err != nil {
		return nil, err
	}
	if in.pipe, err = core.NewPipeline(core.Config{}); err != nil {
		return nil, err
	}
	if in.truth, err = ecoroute.NewEngine(c.net, ecoroute.TruthSource{}, ecoroute.Config{}); err != nil {
		return nil, err
	}
	if in.pairs, err = odPairs(in.truth, c.net, seed+2, panelPairs); err != nil {
		return nil, err
	}
	return in, nil
}

// driveResult is one processed drive.
type driveResult struct {
	drive *drive
	// estimate and stream are the thread CPU time of the post-drive
	// estimate and of the streaming pass: the phone's compute per drive,
	// unaffected by time the host takes the CPU away.
	estimate time.Duration
	stream   time.Duration
	traced   bool
	res      phoneResult
	finite   bool
	sRej     int
	sResets  int
	err      error
}

// driveSample is what a run keeps of each drive for its latency figures.
// It is small, so what the benchmark holds barely grows with the number of
// drives and heap_live_mb stays the program's.
type driveSample struct {
	estimate, stream time.Duration
	km               float64
	traced           bool
}

// tally is one worker's account of the drives it processed.
type tally struct {
	samples           []driveSample
	attempted, failed int
	km                float64 // over every attempted drive
	records           int
	stream            time.Duration
	// Innovation-gate rejections and filter resets of the batch tracks and
	// the streaming pass together, and tracks FuseTracksReport refused.
	rejected, resets, quarantined int
	notes, failures               []string
}

func (t *tally) add(r driveResult) {
	t.attempted++
	t.km += r.drive.km
	if r.err != nil {
		t.failed++
		t.notes = append(t.notes, fmt.Sprintf("drive %d failed: %v", r.drive.id, r.err))
		return
	}
	if !r.finite {
		t.failures = append(t.failures, fmt.Sprintf("drive %d on %s: fused profile is not finite", r.drive.id, r.drive.road.ID()))
	}
	t.samples = append(t.samples, driveSample{estimate: r.estimate, stream: r.stream, km: r.drive.km, traced: r.traced})
	t.records += len(r.drive.trace.Records)
	t.stream += r.stream
	t.rejected += r.res.rejected + r.sRej
	t.resets += r.res.resets + r.sResets
	t.quarantined += r.res.quarantined
}

func (t *tally) merge(o tally) {
	t.samples = append(t.samples, o.samples...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.km += o.km
	t.records += o.records
	t.stream += o.stream
	t.rejected += o.rejected
	t.resets += o.resets
	t.quarantined += o.quarantined
	t.notes = append(t.notes, o.notes...)
	t.failures = append(t.failures, o.failures...)
}

func runCitymap(opt options) (*report, error) {
	rep := newReport()
	var in *citymapInputs
	// setup_s is set-up's CPU time, all threads together: work moved into
	// set-up shows in it, and time the host gives to other guests does not.
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		in = nil
		runtime.GC()
		start := processCPU()
		var err error
		if in, err = citymapSetup(opt.seed); err != nil {
			return nil, err
		}
		setups = append(setups, processCPU()-start)
	}
	rep.set("setup_s", medianDuration(setups).Seconds())
	// The map is fused from each drive's first pass.
	firstPass := make([]*fusion.Profile, len(in.drives))
	inputHeap := liveHeap()

	// The traced run uses one worker, so allocation counts attribute
	// cleanly and the run doubles as the single-threaded baseline.
	nw := workers()
	var tr *tracer
	if opt.trace {
		nw = 1
		tr = newTracer(true)
	}
	probe := newRuntimeProbe()
	_, _, gc0 := probe.read()
	window := time.Duration(opt.seconds) * time.Second
	var (
		next atomic.Int64
		mu   sync.Mutex
		all  tally
		wg   sync.WaitGroup
		// heap watches the live heap from the end of the first pass, once
		// the map's profiles are all held, so how long that pass takes
		// does not move the figure.
		heap *heapWatch
	)
	start := time.Now()
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			var t tally
			for time.Since(start) < window {
				i := next.Add(1) - 1
				if i == int64(len(in.drives)) {
					heap = watchHeap()
				}
				d := &in.drives[int(i)%len(in.drives)]
				r := processDrive(in.pipe, d, i, tr)
				t.add(r)
				if r.err == nil && i < int64(len(in.drives)) {
					firstPass[i] = r.res.profile
				}
			}
			mu.Lock()
			all.merge(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	estimated := time.Since(start)
	if heap == nil { // the run ended inside the first pass
		heap = watchHeap()
	}
	_, _, gc1 := probe.read()

	// Fuse each street's drives (every distinct drive once) and build the
	// fuel, CO₂ and pollutant maps on the estimated grades.
	mapStart := time.Now()
	rep.attempted, rep.failed = all.attempted, all.failed
	rep.notes = append(rep.notes, all.notes...)
	rep.failures = append(rep.failures, all.failures...)
	perStreet := make([][]*fusion.Profile, len(in.city.streets))
	distinct := 0
	for i, p := range firstPass {
		if p != nil {
			distinct++
			street := in.drives[i].street
			perStreet[street] = append(perStreet[street], p)
		}
	}
	cityMap := make(mapStore, len(in.city.streets))
	for i, ps := range perStreet {
		if len(ps) == 0 {
			continue
		}
		fused, err := fusion.FuseProfiles(ps)
		if err != nil {
			return nil, fmt.Errorf("fusing street %s: %w", in.city.streets[i].ID(), err)
		}
		if !finiteProfile(fused) {
			rep.fail("fused map of street %s is not finite", in.city.streets[i].ID())
		}
		cityMap[in.city.streets[i].ID()] = fused
	}
	src := ecoroute.CloudSource{Store: cityMap}
	grade := func(r *road.Road, s float64) float64 {
		return src.Edge(r, in.city.reverse[r.ID()]).At(s)
	}
	mapDone := tr.root(-1, "bench.map")
	speed := cruiseKmh / 3.6
	done := mapDone.begin("fuel.network_fuel")
	fuels, err := fuel.NetworkFuel(in.city.net, speed, grade, fuel.TableII())
	done()
	if err != nil {
		return nil, err
	}
	done = mapDone.begin("fuel.network_emissions")
	_, err = fuel.NetworkEmissions(fuels, speed, fuel.CO2GramsPerGallon, opt.seed)
	done()
	if err != nil {
		return nil, err
	}
	done = mapDone.begin("emission.network_emissions")
	_, err = emission.NetworkEmissions(in.city.net, speed, grade, emission.ForVehicle(emission.Car))
	done()
	if err != nil {
		return nil, err
	}
	mapDone.end()
	mapTime := time.Since(mapStart)
	rep.set("heap_live_mb", heapLiveMB(heap.end(), inputHeap))
	rep.note("%d drives (%d distinct) over %.1f km; %d of %d streets mapped",
		all.attempted, distinct, all.km, len(cityMap), len(in.city.streets))

	// Quality of the map: error against the surveyed references, and the
	// fuel regret of routing on it.
	mre, err := mapMRE(in.city, in.refs, func(i int, s float64) float64 {
		return grade(in.city.streets[i], s)
	})
	if err != nil {
		return nil, err
	}
	rep.set("map_mre_pct", mre)
	est, err := ecoroute.NewEngine(in.city.net, src, ecoroute.Config{})
	if err != nil {
		return nil, err
	}
	regret, err := regretPct(in.city.net, in.truth, in.pairs, func(from, to int) ([]string, error) {
		p, err := est.Route(ecoroute.Fuel, regretKmh, from, to)
		return p.RoadIDs, err
	})
	if err != nil {
		return nil, err
	}
	rep.set("route_regret_pct", regret)

	// Latencies and throughput.
	var estMs, streamMs, perKm, perKmTraced, perKmPlain []float64
	tracedKm := 0.0
	for _, d := range all.samples {
		estMs = append(estMs, msOf(d.estimate))
		streamMs = append(streamMs, msOf(d.stream))
		k := msOf(d.estimate) / d.km
		perKm = append(perKm, k)
		if d.traced {
			perKmTraced = append(perKmTraced, k)
			tracedKm += d.km
		} else {
			perKmPlain = append(perKmPlain, k)
		}
	}
	if err := setQuantiles(rep,
		pct{"primary_ms_p50", estMs, 0.5}, pct{"primary_ms_p90", estMs, 0.90},
		pct{"secondary_ms_p50", streamMs, 0.5}, pct{"secondary_ms_p90", streamMs, 0.90},
		pct{"drive_ms_per_km_p50", perKm, 0.5}, pct{"drive_ms_per_km_p99", perKm, 0.99},
	); err != nil {
		return nil, err
	}
	// On a shared host, other guests slow the workers in spells of seconds
	// and the share of a run spent in such spells varies. The 90th
	// percentile of the per-drive CPU time sits in the slowed mode whatever
	// that share is; the median moves with it (NOTES.md, "Noise").
	rep.set("primary_ms", rep.metrics["primary_ms_p90"])
	rep.set("secondary_ms", rep.metrics["secondary_ms_p90"])
	rep.set("ok_pct", okPct(rep.attempted, rep.failed))
	rep.set("failed_pct", 100-okPct(rep.attempted, rep.failed))
	rep.set("map_km_per_s", all.km/(estimated+mapTime).Seconds())
	rep.set("stream_ms_per_km", msOf(all.stream)/all.km)
	rep.set("core.stream_ns_per_record", float64(all.stream)/float64(all.records))
	rep.set("core.gate_rejected", float64(all.rejected))
	rep.set("core.filter_resets", float64(all.resets))
	rep.set("fusion.quarantined_tracks", float64(all.quarantined))
	rep.set("fuel.map_ms", msOf(mapTime))
	rep.set("runtime.gc_cycles", float64(gc1-gc0))

	if tr != nil {
		layerTime := make(map[string]time.Duration)
		var allocs, bytes uint64
		tr.mu.Lock()
		for _, sp := range tr.spans {
			layerTime[sp.Name] += time.Duration(sp.End - sp.Start)
			if layerOf(sp.Name) == "core" {
				allocs += sp.Allocs
				bytes += sp.AllocBytes
			}
		}
		tr.mu.Unlock()
		rep.set("core.adjust_ms_per_km", msOf(layerTime["core.adjust"])/tracedKm)
		rep.set("core.estimate_track_ms_per_km", msOf(layerTime["core.estimate_track"])/tracedKm)
		rep.set("fusion.fuse_tracks_ms_per_km", msOf(layerTime["fusion.fuse_tracks"])/tracedKm)
		rep.set("core.allocs_per_km", float64(allocs)/tracedKm)
		rep.set("core.alloc_mb_per_km", float64(bytes)/(1<<20)/tracedKm)
		if err := traceSummary(rep, tr, perKmTraced, perKmPlain); err != nil {
			return nil, err
		}
		rep.spans = tr
	}
	return rep, nil
}

// processDrive runs the phone's two estimators over one drive. Every other
// drive of a traced run is traced, so the untraced half measures the
// tracing overhead.
func processDrive(p *core.Pipeline, d *drive, seq int64, tr *tracer) driveResult {
	out := driveResult{drive: d}
	var sc *scope
	if seq%2 == 0 {
		sc = tr.root(seq, "bench.drive")
		out.traced = sc != nil
	}
	c0 := threadCPU()
	done := sc.begin("core.stream")
	out.sRej, out.sResets, out.err = streamDrive(d.road, d.trace)
	done()
	c1 := threadCPU()
	out.stream = c1 - c0
	if out.err == nil {
		out.res, out.err = estimateDrive(p, d.road, d.trace, sc)
		out.estimate = threadCPU() - c1
		out.finite = out.err == nil && finiteProfile(out.res.profile)
	}
	sc.end()
	return out
}
