package main

// serve-read and serve-mixed: open-loop traffic against a warm fusion
// server wired in-process on a loopback listener, exactly as
// `cloudfuse -route-km 164.8 -emissions` wires it with default flags (the
// zero-value routing config, naive fusion, write coalescing on).
//
// serve-read sends only queries: routes, fused profiles and the city
// emission table. No write lands, so the routing engine should never
// refresh. serve-mixed sends the same queries at the same rates plus binary
// uploads of phone-estimated profiles; every accepted upload ticks the store
// generation, so the next route pays for a cost-table refresh and the next
// emission table for an incremental rebuild.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roadgrade/internal/cloud"
	"roadgrade/internal/ecoroute"
	"roadgrade/internal/fusion"
	"roadgrade/internal/groundtruth"
	"roadgrade/internal/obs"
)

// Offered load per second of the timed phase. NOTES.md records the probe
// that sized them: both serve workloads sustain several times these rates
// on a 2-vCPU host.
const (
	routeRate     = 50.0
	emissionsRate = 40.0
	profileRate   = 20.0
	uploadRate    = 40.0 // serve-mixed only

	prefillPasses = 2   // phone-estimated profiles per street uploaded in set-up
	prefillBatch  = 64  // profiles per set-up upload
	queryPairs    = 256 // O/D pairs the route queries draw from
	checkEvery    = 10  // every 10th route of an untraced run is checked against Dijkstra
)

var (
	routeObjectives = []ecoroute.Objective{ecoroute.Fuel, ecoroute.Time, ecoroute.NOx}
	// routeMix is the query stream's objective mix: half ask for the
	// eco (min-fuel) route, a quarter each for the fastest and the min-NOx
	// one. After a tick, fuel routes pay a refresh and landmark rebuild,
	// NOx routes a pollutant-row rebuild too, time routes neither, so with
	// fuel the majority the median route sits inside one cost mode.
	routeMix     = []ecoroute.Objective{ecoroute.Fuel, ecoroute.Fuel, ecoroute.Time, ecoroute.NOx}
	bucketSpeeds = []float64{30, 40, 50, 60} // the engine's and the emission table's default buckets
)

type opKind int

const (
	opRoute opKind = iota
	opProfile
	opEmissions
	opUpload
)

var opNames = [...]string{"route", "profile", "emissions", "upload"}

// op is one scheduled request.
type op struct {
	kind opKind
	due  time.Duration
	// route
	from, to int
	obj      ecoroute.Objective
	speed    float64
	// profile
	roadID string
	// upload: index into serveInputs.uploads
	up int
}

// opResult is what happened to one op. Times are offsets from the start of
// the timed phase.
type opResult struct {
	sent, end time.Duration
	err       error
	status    string        // upload item status
	folded    time.Duration // upload: when its fold was seen in the store
	traced    bool
}

// uploadItem is one phone's upload: the batch item, the profile as the
// server decodes it from the wire (nil when the codec refuses it), and its
// wire size.
type uploadItem struct {
	item  cloud.BatchItem
	wire  *fusion.Profile
	bytes int
	km    float64
}

// serveInputs is everything set-up produces besides the server.
type serveInputs struct {
	city    *city
	refs    []*groundtruth.Reference
	truth   *ecoroute.Engine
	panel   [][2]int // regret panel
	pairs   [][2]int // query O/D pool
	prefill []uploadItem
	uploads []uploadItem
	// served lists the streets with at least one pre-fill profile the codec
	// accepts: the roads whose fused profile a client can fetch.
	served []string
}

// server is one wired fusion service and a client for it.
type server struct {
	srv    *cloud.Server
	eng    *ecoroute.Engine
	store  *timedStore
	hs     *http.Server
	hc     *http.Client
	client *cloud.Client
	base   string
	served chan error
	// prefillOrder lists the set-up uploads the server accepted, in send
	// order.
	prefillOrder []int
	prefillFails int
}

// timedStore is the routing engine's view of the fused store, counting and
// timing every profile read (traced run only).
type timedStore struct {
	srv   *cloud.Server
	reads atomic.Int64
	nanos atomic.Int64
}

func (t *timedStore) StoreGeneration() uint64 { return t.srv.StoreGeneration() }

func (t *timedStore) FusedGeneration(roadID string) (*fusion.Profile, uint64, error) {
	start := time.Now()
	p, gen, err := t.srv.FusedGeneration(roadID)
	t.nanos.Add(int64(time.Since(start)))
	t.reads.Add(1)
	return p, gen, err
}

func serveSetup(opt options, mixed bool) (*serveInputs, error) {
	c, err := newCity()
	if err != nil {
		return nil, err
	}
	in := &serveInputs{city: c}
	if in.refs, err = references(c, opt.seed+1, workers()); err != nil {
		return nil, err
	}
	if in.truth, err = ecoroute.NewEngine(c.net, ecoroute.TruthSource{}, ecoroute.Config{}); err != nil {
		return nil, err
	}
	if in.panel, err = odPairs(in.truth, c.net, opt.seed+2, panelPairs); err != nil {
		return nil, err
	}
	if in.pairs, err = odPairs(in.truth, c.net, opt.seed+3, queryPairs); err != nil {
		return nil, err
	}
	nUploads := 0
	if mixed {
		nUploads = int(math.Round(uploadRate * float64(opt.seconds)))
	}
	passes := prefillPasses + (nUploads+len(c.streets)-1)/len(c.streets)
	plan := planDrives(c, opt.seed, passes)[:prefillPasses*len(c.streets)+nUploads]
	crowd, err := estimateCrowd(c, plan, workers())
	if err != nil {
		return nil, err
	}
	items := make([]uploadItem, len(crowd))
	for i, prof := range crowd {
		r := c.streets[plan[i].street]
		it := cloud.BatchItem{
			RoadID:  r.ID(),
			Key:     cloud.ProfileKey(r.ID(), prof),
			Device:  fmt.Sprintf("ph-%d", i),
			Profile: prof,
		}
		u := uploadItem{item: it, km: r.Length() / 1000}
		// Encoding validates the profile like the server does; a profile
		// the codec refuses never leaves the phone, and its upload fails.
		if body, err := cloud.EncodeBatchBinary([]cloud.BatchItem{it}); err == nil {
			dec, err := cloud.DecodeBatchBinary(body)
			if err != nil {
				return nil, fmt.Errorf("decoding upload %d: %w", i, err)
			}
			u.wire, u.bytes = dec[0].Profile, len(body)
		}
		items[i] = u
	}
	split := prefillPasses * len(c.streets)
	in.prefill, in.uploads = items[:split], items[split:]
	has := make([]bool, len(c.streets))
	for i, u := range in.prefill {
		has[plan[i].street] = has[plan[i].street] || u.wire != nil
	}
	for i, ok := range has {
		if ok {
			in.served = append(in.served, c.streets[i].ID())
		}
	}
	return in, nil
}

// startServer wires a fresh server, pre-fills it with the set-up uploads
// and warms every lazily built structure the query stream touches: cost
// tables, landmark tables, pollutant rows and emission tables.
func startServer(in *serveInputs, traced bool) (*server, error) {
	s := &server{srv: cloud.NewServer()}
	s.srv.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	policy, err := fusion.ParsePolicy("naive")
	if err != nil {
		return nil, err
	}
	s.srv.Policy = policy
	s.srv.EnableCoalescing(cloud.CoalesceConfig{QueueDepth: 1024, BatchMax: 256})
	var store ecoroute.CloudStore = s.srv
	if traced {
		s.store = &timedStore{srv: s.srv}
		store = s.store
	}
	if s.eng, err = ecoroute.NewEngine(in.city.net, ecoroute.CloudSource{Store: store}, ecoroute.Config{}); err != nil {
		s.srv.Close()
		return nil, err
	}
	s.srv.EnableRouting(s.eng)
	if err := s.srv.EnableEmissions(in.city.net); err != nil {
		s.srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{
		Handler:           s.srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.hc = &http.Client{Transport: cloud.NewTransport(workers())}
	// One attempt per request: a refused or failed request is reported,
	// never retried into a success.
	if s.client, err = cloud.NewClient(s.base, s.hc, cloud.WithRetry(1, 0, 0), cloud.WithBinaryBatch(true)); err != nil {
		s.stop()
		return nil, err
	}
	if err := s.prefill(in); err != nil {
		s.stop()
		return nil, err
	}
	if err := s.warm(in); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) prefill(in *serveInputs) error {
	ctx := context.Background()
	var batch []cloud.BatchItem
	var idx []int
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		res, err := s.client.SubmitBatch(ctx, batch)
		if err != nil {
			return fmt.Errorf("pre-fill upload: %w", err)
		}
		for i, r := range res {
			if r.Status == "accepted" {
				s.prefillOrder = append(s.prefillOrder, idx[i])
			} else {
				s.prefillFails++
			}
		}
		batch, idx = batch[:0], idx[:0]
		return nil
	}
	for i, u := range in.prefill {
		if u.wire == nil {
			s.prefillFails++
			continue
		}
		batch = append(batch, u.item)
		idx = append(idx, i)
		if len(batch) == prefillBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

func (s *server) warm(in *serveInputs) error {
	ctx := context.Background()
	p := in.pairs[0]
	for _, obj := range routeObjectives {
		for _, v := range bucketSpeeds {
			if _, err := s.client.Route(ctx, p[0], p[1], obj.String(), v); err != nil {
				return fmt.Errorf("warming routes: %w", err)
			}
		}
	}
	for _, v := range bucketSpeeds {
		if err := s.emissions(ctx, v); err != nil {
			return fmt.Errorf("warming emissions: %w", err)
		}
	}
	_, err := s.client.FetchProfile(ctx, in.served[0])
	return err
}

// emissions fetches the city emission table and discards it: the request is
// timed to the last byte, without decoding the table on the client.
func (s *server) emissions(ctx context.Context, kmh float64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/emissions?speed_kmh=%g", s.base, kmh), nil)
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || n == 0 {
		return fmt.Errorf("emissions: HTTP %d, %d bytes", resp.StatusCode, n)
	}
	return nil
}

// stop shuts the listener down and drains the coalescer.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // closing: in-flight requests have all been answered
	<-s.served
	s.srv.Close()
	s.hc.CloseIdleConnections()
}

// schedule draws the timed phase's requests: for each kind, rate×seconds
// due times spread uniformly at random over the phase — independent users,
// a Poisson stream conditioned on its count — merged in due order. Random
// arrivals also sample every relative timing of uploads and queries within
// a run, where fixed-interval streams would repeat one seeded alignment.
func schedule(in *serveInputs, seed int64, seconds int, mixed bool) []op {
	rng := rand.New(rand.NewSource(seed + 4))
	T := int64(time.Duration(seconds) * time.Second)
	var ops []op
	stream := func(rate float64, mk func(due time.Duration) op) {
		dues := make([]time.Duration, int(math.Round(rate*float64(seconds))))
		for i := range dues {
			dues[i] = time.Duration(rng.Int63n(T))
		}
		// Sorted, so a stream's own requests (uploads in particular) go
		// out in the order they were made.
		sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
		for _, due := range dues {
			ops = append(ops, mk(due))
		}
	}
	stream(routeRate, func(due time.Duration) op {
		p := in.pairs[rng.Intn(len(in.pairs))]
		return op{kind: opRoute, due: due, from: p[0], to: p[1],
			obj: routeMix[rng.Intn(len(routeMix))], speed: float64(30 + rng.Intn(31))}
	})
	stream(profileRate, func(due time.Duration) op {
		return op{kind: opProfile, due: due, roadID: in.served[rng.Intn(len(in.served))]}
	})
	stream(emissionsRate, func(due time.Duration) op {
		return op{kind: opEmissions, due: due, speed: float64(30 + rng.Intn(31))}
	})
	if mixed {
		// Uploads go out in pass order, so any one street's uploads are
		// seconds apart and never in flight together.
		n := 0
		stream(uploadRate, func(due time.Duration) op {
			n++
			return op{kind: opUpload, due: due, up: n - 1}
		})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// obsSnapshot is the program's own counters and histograms that the
// per-layer metrics read.
type obsSnapshot struct {
	refreshes, costHits, costMisses uint64
	refreshSum                      float64
	routeCount                      uint64
	routeSum                        float64
	emisCount                       uint64
	emisSum                         float64
	storeReads, storeNanos          int64
}

func snapshotObs(s *server) obsSnapshot {
	r := obs.Default
	o := obsSnapshot{
		refreshes:  r.Counter("ecoroute_refreshes_total").Value(),
		costHits:   r.Counter("ecoroute_cost_cache_hits_total").Value(),
		costMisses: r.Counter("ecoroute_cost_cache_misses_total").Value(),
		refreshSum: r.Histogram("ecoroute_refresh_seconds", obs.LatencyBuckets).Sum(),
		emisCount:  r.Histogram("cloud_emission_rebuild_seconds", obs.LatencyBuckets).Count(),
		emisSum:    r.Histogram("cloud_emission_rebuild_seconds", obs.LatencyBuckets).Sum(),
	}
	for _, obj := range routeObjectives {
		h := r.Histogram("ecoroute_route_seconds", obs.LatencyBuckets, obs.L("objective", obj.String()))
		o.routeCount += h.Count()
		o.routeSum += h.Sum()
	}
	if s.store != nil {
		o.storeReads = s.store.reads.Load()
		o.storeNanos = s.store.nanos.Load()
	}
	return o
}

// checks counts the in-line Dijkstra comparisons.
type checks struct {
	mu                sync.Mutex
	compared, skipped int
	mismatches        []string
}

func runServe(opt options) (*report, error) {
	mixed := opt.workload == "serve-mixed"
	rep := newReport()
	setupStart := processCPU()
	in, err := serveSetup(opt, mixed)
	if err != nil {
		return nil, err
	}
	inputs := processCPU() - setupStart
	// The op log is the benchmark's, sized by the schedule alone, so it is
	// allocated before the inputs' live heap is taken.
	ops := schedule(in, opt.seed, opt.seconds, mixed)
	results := make([]opResult, len(ops))
	inputHeap := liveHeap()
	// The server half of set-up is repeated; setup_s is the CPU time of the
	// input half plus the median server half (the input half, the crowd's
	// phone estimates, dominates and is too slow to repeat).
	var s *server
	var wiring []time.Duration
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.stop()
		}
		runtime.GC()
		start := processCPU()
		if s, err = startServer(in, opt.trace); err != nil {
			return nil, err
		}
		wiring = append(wiring, processCPU()-start)
	}
	defer s.stop()
	rep.set("setup_s", (inputs + medianDuration(wiring)).Seconds())
	if s.prefillFails > 0 {
		rep.note("set-up: %d of %d pre-fill profiles refused", s.prefillFails, len(in.prefill))
	}

	var tr *tracer
	if opt.trace {
		tr = newTracer(false)
	}
	var chk checks
	var queueMu sync.Mutex
	var queueMax int
	probe := newRuntimeProbe()
	_, _, gc0 := probe.read()
	before := snapshotObs(s)
	heap := watchHeap()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				if wait := o.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				r := &results[i]
				var sc *scope
				if i%2 == 0 {
					sc = tr.root(int64(i), "bench."+opNames[o.kind])
					r.traced = sc != nil
				}
				gen := s.srv.StoreGeneration()
				r.sent = time.Since(start)
				done := sc.begin("cloud." + opNames[o.kind])
				switch o.kind {
				case opRoute:
					var dto cloud.RouteDTO
					dto, r.err = s.client.Route(ctx, o.from, o.to, o.obj.String(), o.speed)
					r.end = time.Since(start)
					done()
					if r.err == nil && !opt.trace && i%checkEvery == 0 {
						chk.check(s, o, dto, gen)
					}
				case opProfile:
					_, r.err = s.client.FetchProfile(ctx, o.roadID)
					r.end = time.Since(start)
					done()
				case opEmissions:
					r.err = s.emissions(ctx, o.speed)
					r.end = time.Since(start)
					done()
				case opUpload:
					s.upload(ctx, &in.uploads[o.up], r, start)
					done()
					if opt.trace {
						_, q, _ := s.srv.CoalesceStats()
						queueMu.Lock()
						queueMax = max(queueMax, q)
						queueMu.Unlock()
					}
				}
				sc.end()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	_, backlog, _ := s.srv.CoalesceStats()
	after := snapshotObs(s)
	_, _, gc1 := probe.read()
	rep.set("heap_live_mb", heapLiveMB(heap.end(), inputHeap))
	// Drain the coalescer: everything accepted is folded from here on.
	s.srv.Close()
	rep.note("%d requests in %.2f s (offered over %d s)", len(ops), elapsed.Seconds(), opt.seconds)

	routeRTT, err := serveMetrics(rep, in, s, ops, results, mixed)
	if err != nil {
		return nil, err
	}
	rep.set("runtime.gc_cycles", float64(gc1-gc0))
	rep.set("cloud.backlog_end", float64(backlog))
	rep.set("cloud.queue_depth_max", float64(queueMax))
	layerMetrics(rep, s, before, after, routeRTT)
	if !opt.trace {
		rep.note("route checks against Dijkstra: %d compared, %d skipped (generation moved)", chk.compared, chk.skipped)
		if chk.compared == 0 {
			rep.fail("no route answer could be checked against Dijkstra")
		}
		for _, m := range chk.mismatches {
			rep.fail("%s", m)
		}
	}
	if mixed {
		if err := checkReplay(rep, in, s, ops, results); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		var traced, plain []float64
		for i, o := range ops {
			r := results[i]
			if o.kind != opRoute || r.err != nil {
				continue
			}
			if r.traced {
				traced = append(traced, msOf(r.end-o.due))
			} else {
				plain = append(plain, msOf(r.end-o.due))
			}
		}
		if err := traceSummary(rep, tr, traced, plain); err != nil {
			return nil, err
		}
		rep.spans = tr
	}
	return rep, nil
}

// upload sends one phone's profile and, once it is accepted, waits until
// its fold shows in the store.
func (s *server) upload(ctx context.Context, u *uploadItem, r *opResult, start time.Time) {
	_, gen, _ := s.srv.FusedGeneration(u.item.RoadID)
	res, err := s.client.SubmitBatch(ctx, []cloud.BatchItem{u.item})
	r.end = time.Since(start)
	if err != nil {
		r.err = err
		return
	}
	r.status = res[0].Status
	if r.status != "accepted" {
		return
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, g, err := s.srv.FusedGeneration(u.item.RoadID); err == nil && g > gen {
			r.folded = time.Since(start)
			return
		}
		if time.Now().After(deadline) {
			r.err = errors.New("accepted upload never became visible")
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// check compares one answered route with the Dijkstra reference on the same
// cost snapshot: the store generation must not have moved between the
// request and the reference query, or the comparison is skipped.
func (c *checks) check(s *server, o *op, got cloud.RouteDTO, gen uint64) {
	want, err := s.eng.RouteDijkstra(o.obj, o.speed, o.from, o.to)
	same := s.srv.StoreGeneration() == gen
	c.mu.Lock()
	defer c.mu.Unlock()
	if !same {
		c.skipped++
		return
	}
	c.compared++
	switch {
	case err != nil:
		c.mismatches = append(c.mismatches, fmt.Sprintf("route %d→%d %v: Dijkstra failed: %v", o.from, o.to, o.obj, err))
	case math.Float64bits(got.Cost) != math.Float64bits(want.Cost):
		c.mismatches = append(c.mismatches, fmt.Sprintf("route %d→%d %v@%g: cost %v, Dijkstra %v",
			o.from, o.to, o.obj, o.speed, got.Cost, want.Cost))
	}
}

// serveMetrics turns the op log into the end-to-end and per-op metrics. It
// returns the mean route round trip in ms.
func serveMetrics(rep *report, in *serveInputs, s *server, ops []op, results []opResult, mixed bool) (float64, error) {
	lat := make(map[opKind][]float64)
	var rtt, late []float64
	var routes, fuelRoutes []interval
	var ups []upload
	var foldWait, upRTT []float64
	var upKm float64
	var upBytes int
	items := map[string]int{}
	var kindAttempted, kindFailed [len(opNames)]int
	for i, o := range ops {
		r := results[i]
		rep.attempted++
		kindAttempted[o.kind]++
		late = append(late, msOf(lateness(o.due, r.sent)))
		ok := r.err == nil
		if o.kind == opUpload {
			u := in.uploads[o.up]
			switch {
			case u.wire == nil || r.err != nil && r.status == "":
				items["errored"]++
			default:
				items[r.status]++
			}
			if u.wire != nil {
				upKm += u.km
				upBytes += u.bytes
			}
			ok = ok && r.status == "accepted"
			if ok {
				ups = append(ups, upload{due: o.due, visible: r.folded})
				foldWait = append(foldWait, msOf(r.folded-r.end))
				upRTT = append(upRTT, msOf(r.end-r.sent))
			}
		}
		if !ok {
			rep.failed++
			kindFailed[o.kind]++
			continue
		}
		lat[o.kind] = append(lat[o.kind], msOf(r.end-o.due))
		if o.kind == opRoute {
			rtt = append(rtt, msOf(r.end-r.sent))
			routes = append(routes, interval{start: r.sent, end: r.end})
			if o.obj == ecoroute.Fuel {
				fuelRoutes = append(fuelRoutes, interval{start: r.sent, end: r.end})
			}
		}
	}
	for k, name := range opNames {
		if kindAttempted[k] > 0 {
			rep.note("%-9s attempted %5d  failed %4d", name, kindAttempted[k], kindFailed[k])
		}
	}
	if err := setQuantiles(rep,
		pct{"route_ms_p50", lat[opRoute], 0.5}, pct{"route_ms_p99", lat[opRoute], 0.99},
		pct{"emissions_ms_p99", lat[opEmissions], 0.99},
		pct{"gen.late_ms_p99", late, 0.99},
	); err != nil {
		return 0, err
	}
	// Each serve workload's primary request is the kind it adds: routes on
	// serve-read, uploads on serve-mixed. The secondary is the emission
	// table on serve-read and, on serve-mixed, visibility, which ends with
	// the first min-fuel route to read the upload's fold.
	primary, secondary := lat[opRoute], lat[opEmissions]
	meanRTT := 0.0
	for _, x := range rtt {
		meanRTT += x
	}
	meanRTT /= float64(len(rtt))
	if mixed {
		for _, rs := range [][]interval{routes, fuelRoutes} {
			sort.Slice(rs, func(i, j int) bool { return rs[i].start < rs[j].start })
		}
		// Visibility runs to the end of the first min-fuel route after the
		// fold, the kind that pays for the cost-table refresh, without the
		// wait for that route to be due. The raw figure, to the end of the
		// next route of any kind wait included, is kept alongside.
		var visMs, nextMs []float64
		unmatched := 0
		for i, j := range firstRouteAfter(ups, fuelRoutes) {
			if j < 0 {
				unmatched++
				continue
			}
			visMs = append(visMs, msOf(visibleLatency(ups[i], fuelRoutes[j])))
		}
		for i, j := range firstRouteAfter(ups, routes) {
			if j >= 0 {
				nextMs = append(nextMs, msOf(routes[j].end-ups[i].due))
			}
		}
		if unmatched > 0 {
			rep.note("%d accepted uploads had no later min-fuel route", unmatched)
		}
		if err := setQuantiles(rep,
			pct{"upload_ms_p50", lat[opUpload], 0.5}, pct{"upload_ms_p99", lat[opUpload], 0.99},
			pct{"visible_ms_p50", visMs, 0.5}, pct{"visible_ms_p99", visMs, 0.99},
			pct{"visible_next_route_ms_p50", nextMs, 0.5},
			pct{"cloud.upload_rtt_ms_p99", upRTT, 0.99},
			pct{"cloud.fold_wait_ms_p99", foldWait, 0.99},
		); err != nil {
			return 0, err
		}
		primary, secondary = lat[opUpload], visMs
		rep.set("cloud.wire_bytes_per_km", float64(upBytes)/upKm)
		for _, st := range []string{"accepted", "duplicate", "rejected", "shed", "errored"} {
			rep.set("cloud.items_"+st, float64(items[st]))
		}
	}
	if err := setQuantiles(rep,
		pct{"primary_ms_p50", primary, 0.5}, pct{"primary_ms_p90", primary, 0.90},
		pct{"secondary_ms_p50", secondary, 0.5}, pct{"secondary_ms_p90", secondary, 0.90},
	); err != nil {
		return 0, err
	}
	// Open-loop tails are set by queueing behind the odd slow request, so
	// the serve workloads gate their medians (NOTES.md, "Noise").
	rep.set("primary_ms", rep.metrics["primary_ms_p50"])
	rep.set("secondary_ms", rep.metrics["secondary_ms_p50"])
	rep.set("ok_pct", okPct(rep.attempted, rep.failed))
	rep.set("failed_pct", 100-okPct(rep.attempted, rep.failed))

	// Quality of the served map, as routing sees it: a street's own fused
	// profile, else its reverse sign-flipped, else flat.
	src := ecoroute.CloudSource{Store: s.srv}
	mre, err := mapMRE(in.city, in.refs, func(i int, at float64) float64 {
		st := in.city.streets[i]
		return src.Edge(st, in.city.reverse[st.ID()]).At(at)
	})
	if err != nil {
		return 0, err
	}
	rep.set("map_mre_pct", mre)
	regret, err := regretPct(in.city.net, in.truth, in.panel, func(from, to int) ([]string, error) {
		p, err := s.eng.Route(ecoroute.Fuel, regretKmh, from, to)
		return p.RoadIDs, err
	})
	if err != nil {
		return 0, err
	}
	rep.set("route_regret_pct", regret)
	return meanRTT, nil
}

// layerMetrics reads the routing and emission layers' own counters over the
// timed phase.
func layerMetrics(rep *report, s *server, before, after obsSnapshot, routeRTTms float64) {
	refreshes := after.refreshes - before.refreshes
	rep.set("ecoroute.refreshes", float64(refreshes))
	rep.set("ecoroute.refresh_ms_total", 1000*(after.refreshSum-before.refreshSum))
	if hits, misses := after.costHits-before.costHits, after.costMisses-before.costMisses; hits+misses > 0 {
		rep.set("ecoroute.cost_cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	if reads := after.storeReads - before.storeReads; reads > 0 && refreshes > 0 {
		rep.set("ecoroute.store_reads_per_refresh", float64(reads)/float64(refreshes))
		rep.set("ecoroute.store_read_us_mean", float64(after.storeNanos-before.storeNanos)/float64(reads)/1000)
	}
	if n := after.routeCount - before.routeCount; n > 0 {
		engineUs := 1e6 * (after.routeSum - before.routeSum) / float64(n)
		rep.set("ecoroute.route_engine_us_mean", engineUs)
		rep.set("cloud.http_overhead_us", 1000*routeRTTms-engineUs)
	}
	rep.set("ecoroute.cch_recomputed_arcs", float64(s.eng.LastCustomization().RecomputedArcs))
	if n := after.emisCount - before.emisCount; n > 0 {
		rep.set("emission.rebuilds", float64(n))
		rep.set("emission.table_ms", 1000*(after.emisSum-before.emisSum)/float64(n))
	}
}

// checkReplay is serve-mixed's store gate: after the coalescer drained,
// every road's fused profile must be bit-identical to replaying the
// accepted uploads, in send order, through SubmitDevice on a fresh server.
func checkReplay(rep *report, in *serveInputs, s *server, ops []op, results []opResult) error {
	fresh := cloud.NewServer()
	fresh.Policy = s.srv.Policy
	for _, i := range s.prefillOrder {
		u := in.prefill[i]
		if err := fresh.SubmitDevice(u.item.RoadID, u.item.Device, u.wire); err != nil {
			return fmt.Errorf("replaying pre-fill upload %d: %w", i, err)
		}
	}
	var accepted []int
	for i, o := range ops {
		if o.kind == opUpload && results[i].status == "accepted" {
			accepted = append(accepted, i)
		}
	}
	sort.SliceStable(accepted, func(a, b int) bool { return results[accepted[a]].sent < results[accepted[b]].sent })
	for _, i := range accepted {
		u := in.uploads[ops[i].up]
		if err := fresh.SubmitDevice(u.item.RoadID, u.item.Device, u.wire); err != nil {
			return fmt.Errorf("replaying upload %d: %w", ops[i].up, err)
		}
	}
	got, want := s.srv.Roads(), fresh.Roads()
	if len(got) != len(want) {
		rep.fail("store holds %d roads, replay %d", len(got), len(want))
		return nil
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			rep.fail("road %d: store has %+v, replay %+v", i, got[i], want[i])
			return nil
		}
		a, err := s.srv.Fused(got[i].RoadID)
		if err != nil {
			return err
		}
		b, err := fresh.Fused(got[i].RoadID)
		if err != nil {
			return err
		}
		if !sameBits(a, b) {
			bad++
		}
	}
	if bad > 0 {
		rep.fail("%d of %d fused roads differ from the replay", bad, len(got))
	}
	rep.note("replay gate: %d roads compared", len(got))
	return nil
}

// sameBits reports whether two profiles are Float64bits-identical.
func sameBits(a, b *fusion.Profile) bool {
	if math.Float64bits(a.SpacingM) != math.Float64bits(b.SpacingM) || a.Len() != b.Len() {
		return false
	}
	for i := range a.S {
		if math.Float64bits(a.S[i]) != math.Float64bits(b.S[i]) ||
			math.Float64bits(a.GradeRad[i]) != math.Float64bits(b.GradeRad[i]) ||
			math.Float64bits(a.Var[i]) != math.Float64bits(b.Var[i]) {
			return false
		}
	}
	return true
}
