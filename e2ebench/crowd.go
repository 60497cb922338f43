package main

// The inputs every workload shares: the paper's city, the streets the crowd
// drives, simulated phone drives over them, and the phone's own estimate of
// each drive. Everything here is a pure function of the seed.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"roadgrade/internal/core"
	"roadgrade/internal/fusion"
	"roadgrade/internal/groundtruth"
	"roadgrade/internal/road"
	"roadgrade/internal/sensors"
	"roadgrade/internal/vehicle"
)

const (
	cruiseKmh       = 40.0 // §IV-C evaluation speed
	laneChangesPerK = 1.5  // lane changes per km, as in the Fig. 9 recipe
	minStreetM      = 150  // streets shorter than this are not driven (Fig. 9)
	gridM           = 5.0  // fusion grid spacing
	mreSkipM        = 100  // the first meters of a drive are filter warm-up (Fig. 9a)
	liveSource      = sensors.SourceCANBus
)

// city is the paper's 164.8 km network plus the streets the crowd drives:
// one direction of every street of at least minStreetM.
type city struct {
	net     *road.Network
	streets []*road.Road
	km      float64
	// reverse maps a driven street's id to the opposite-direction road, so
	// maps can be evaluated on both directions.
	reverse map[string]*road.Road
}

func newCity() (*city, error) {
	net, err := road.Charlottesville()
	if err != nil {
		return nil, fmt.Errorf("building the city: %w", err)
	}
	c := &city{net: net, reverse: make(map[string]*road.Road)}
	byPair := make(map[[2]int]*road.Road, len(net.Edges))
	for _, e := range net.Edges {
		byPair[[2]int{e.From, e.To}] = e.Road
	}
	for i, e := range net.Edges {
		// The generator adds both directions of a street next to each other.
		if i%2 == 1 || e.Road.Length() < minStreetM {
			continue
		}
		c.streets = append(c.streets, e.Road)
		c.km += e.Road.Length() / 1000
		if rev := byPair[[2]int{e.To, e.From}]; rev != nil {
			c.reverse[rev.ID()] = e.Road
		}
	}
	if len(c.streets) == 0 {
		return nil, errors.New("the city has no drivable streets")
	}
	return c, nil
}

// drive is one simulated phone drive over one street.
type drive struct {
	id     int
	street int // index into city.streets
	road   *road.Road
	trace  *sensors.Trace
	km     float64
}

// simulateDrive runs the vehicle and sensor simulators over one street.
// The trace keeps only what a phone records: the ground-truth states are
// dropped, since no estimator may read them.
func simulateDrive(r *road.Road, tripSeed, traceSeed int64) (*sensors.Trace, error) {
	d := vehicle.DefaultDriver(cruiseKmh / 3.6)
	d.LaneChangesPerKm = laneChangesPerK
	trip, err := vehicle.SimulateTrip(vehicle.TripConfig{
		Road: r, Driver: d, Rng: rand.New(rand.NewSource(tripSeed)),
	})
	if err != nil {
		return nil, fmt.Errorf("trip on %s: %w", r.ID(), err)
	}
	trc, err := sensors.Sample(trip, sensors.DefaultConfig(), rand.New(rand.NewSource(traceSeed)))
	if err != nil {
		return nil, fmt.Errorf("trace on %s: %w", r.ID(), err)
	}
	trc.Truth = nil
	return trc, nil
}

// drivePlan lists passes×streets drives with their seeds, drawn in a fixed
// order from the workload seed.
type drivePlan struct {
	street              int
	tripSeed, traceSeed int64
}

func planDrives(c *city, seed int64, passes int) []drivePlan {
	rng := rand.New(rand.NewSource(seed))
	out := make([]drivePlan, 0, passes*len(c.streets))
	for p := 0; p < passes; p++ {
		for s := range c.streets {
			out = append(out, drivePlan{street: s, tripSeed: rng.Int63(), traceSeed: rng.Int63()})
		}
	}
	return out
}

// phoneResult is what the phone keeps from one drive after estimating it.
type phoneResult struct {
	profile     *fusion.Profile
	rejected    int // innovation-gate rejections over the batch tracks
	resets      int // filter re-initializations over the batch tracks
	quarantined int // tracks FuseTracksReport refused
}

// estimateDrive is the phone's post-drive estimate: data adjustment, one
// two-pass EKF track per velocity source, and track fusion (Eq. 6).
// hook, when non-nil, brackets each layer call (the traced run's spans).
func estimateDrive(p *core.Pipeline, r *road.Road, trc *sensors.Trace, hook *scope) (phoneResult, error) {
	var res phoneResult
	done := hook.begin("core.adjust")
	adj, err := p.Adjust(trc, r.Line())
	done()
	if err != nil {
		return res, fmt.Errorf("adjusting %s: %w", r.ID(), err)
	}
	sources := sensors.AllSources()
	tracks := make([]*core.Track, 0, len(sources))
	for _, src := range sources {
		done := hook.begin("core.estimate_track")
		tr, err := p.EstimateTrack(trc, adj, src)
		done()
		if err != nil {
			return res, fmt.Errorf("estimating %v track on %s: %w", src, r.ID(), err)
		}
		res.rejected += tr.Rejected
		res.resets += tr.Resets
		tracks = append(tracks, tr)
	}
	done = hook.begin("fusion.fuse_tracks")
	prof, reports, err := fusion.FuseTracksReport(tracks, gridM, r.Length())
	done()
	if err != nil {
		return res, fmt.Errorf("fusing tracks on %s: %w", r.ID(), err)
	}
	for _, rep := range reports {
		if rep.Quarantined {
			res.quarantined++
		}
	}
	res.profile = prof
	return res, nil
}

// streamDrive is the live phone path: the causal single-source estimator
// fed one record at a time.
func streamDrive(r *road.Road, trc *sensors.Trace) (rejected, resets int, err error) {
	st, err := core.NewStreaming(core.Config{}, r.Line(), liveSource, trc.DT)
	if err != nil {
		return 0, 0, fmt.Errorf("streaming on %s: %w", r.ID(), err)
	}
	for _, rec := range trc.Records {
		if _, err := st.Push(rec); err != nil {
			return 0, 0, fmt.Errorf("streaming on %s: %w", r.ID(), err)
		}
	}
	return st.Rejected(), st.Resets(), nil
}

// estimateCrowd simulates and estimates every planned drive on `workers`
// goroutines and returns the phones' profiles, in plan order. Traces are
// dropped as soon as they are estimated, so memory stays at one trace per
// worker.
func estimateCrowd(c *city, plan []drivePlan, workers int) ([]*fusion.Profile, error) {
	p, err := core.NewPipeline(core.Config{})
	if err != nil {
		return nil, err
	}
	out := make([]*fusion.Profile, len(plan))
	err = parallel(len(plan), workers, func(i int) error {
		r := c.streets[plan[i].street]
		trc, err := simulateDrive(r, plan[i].tripSeed, plan[i].traceSeed)
		if err != nil {
			return err
		}
		res, err := estimateDrive(p, r, trc, nil)
		if err != nil {
			return err
		}
		out[i] = res.profile
		return nil
	})
	return out, err
}

// references surveys the ground-truth reference profile (§III-D) of every
// street.
func references(c *city, seed int64, workers int) ([]*groundtruth.Reference, error) {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, len(c.streets))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	out := make([]*groundtruth.Reference, len(c.streets))
	err := parallel(len(c.streets), workers, func(i int) error {
		ref, err := groundtruth.ReferenceFor(c.streets[i], rand.New(rand.NewSource(seeds[i])))
		if err != nil {
			return fmt.Errorf("reference for %s: %w", c.streets[i].ID(), err)
		}
		out[i] = ref
		return nil
	})
	return out, err
}

// mapMRE is the Fig. 9a error of a gradient map, Σ|θ̂ − θ| / Σ|θ| over every
// street's cells past the warm-up, against the surveyed references. grade
// returns a street's map value at arc length s.
func mapMRE(c *city, refs []*groundtruth.Reference, grade func(street int, s float64) float64) (float64, error) {
	var num, den float64
	for i, r := range c.streets {
		ref := refs[i]
		for s := 0.0; s <= r.Length(); s += gridM {
			if s < mreSkipM || s > ref.Length() {
				continue
			}
			truth := ref.GradeAvgAt(s, gridM)
			num += math.Abs(grade(i, s) - truth)
			den += math.Abs(truth)
		}
	}
	if den == 0 {
		return 0, errors.New("references are flat")
	}
	return 100 * num / den, nil
}

// finiteProfile reports whether every cell of a profile is finite.
func finiteProfile(p *fusion.Profile) bool {
	for i := range p.GradeRad {
		if math.IsNaN(p.GradeRad[i]) || math.IsInf(p.GradeRad[i], 0) ||
			math.IsNaN(p.Var[i]) || math.IsInf(p.Var[i], 0) {
			return false
		}
	}
	return true
}

// parallel runs fn(0..n-1) on `workers` goroutines and returns the first
// error.
func parallel(n, workers int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= n || first != nil {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
