package cloud

// The write coalescer: the fleet-scale ingest path. Handlers validate and
// decode submissions, then append them to a bounded per-shard queue; one
// worker goroutine per shard drains its queue in batches and folds every
// queued submission into the fusion accumulators under a single pass of lock
// acquisitions — one shard-lock hold for all idempotency reservations, one
// road-lock hold per road group — instead of the per-request
// lock/bump/unlock the direct path pays. Fusion output is bit-identical to
// the direct path: within a road, queued submissions fold in FIFO arrival
// order, which is the same RobustAccumulator fold order Submit would have
// used.
//
// The queue is also the admission controller. Enqueue never blocks: when a
// shard's queue is full the item is shed, the handler answers 429 with
// Retry-After, and the client's retry/backoff machinery (PR 2) re-submits
// just the shed items — per-item idempotency keys make over-retry harmless.

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"roadgrade/internal/fusion"
	"roadgrade/internal/obs"
)

// Write-path instrumentation: queue depth is the backpressure signal, the
// batch-size histogram shows how much amortization the coalescer achieves
// (mean batch size = items per lock pass), folds count lock passes, and the
// shed counter is the load-shedding rate.
var (
	obsCoalesceFolds = obs.Default.Counter("cloud_coalesce_folds_total")
	obsCoalesceBatch = obs.Default.Histogram("cloud_coalesce_batch_size",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	obsSubmitShed  = obs.Default.Counter("cloud_submit_shed_total")
	obsBatchItems  = map[string]*obs.Counter{}
	obsBatchItemMu sync.Mutex
)

// batchItemCounter returns the cloud_batch_items_total{status=...} counter,
// pre-creating on first use (statuses are a small closed set).
func batchItemCounter(status string) *obs.Counter {
	obsBatchItemMu.Lock()
	defer obsBatchItemMu.Unlock()
	c, ok := obsBatchItems[status]
	if !ok {
		c = obs.Default.Counter("cloud_batch_items_total", obs.L("status", status))
		obsBatchItems[status] = c
	}
	return c
}

// Per-item batch outcomes.
const (
	statusAccepted  = "accepted"
	statusDuplicate = "duplicate"
	statusRejected  = "rejected"
	statusShed      = "shed"
)

// BatchItemResult is one submission's outcome inside a batch response.
type BatchItemResult struct {
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// pendingItem is one queued submission plus where to report its outcome.
// The worker writes *out and then calls done.Done(); the enqueueing handler
// reads results only after done.Wait(), so no further synchronization is
// needed on out.
type pendingItem struct {
	roadID string
	key    string
	device string
	p      *fusion.Profile
	out    *BatchItemResult
	done   *sync.WaitGroup
	// sc is the enqueueing handler span's context; the fold span links back
	// to it so a trace crosses the async queue boundary. Zero when the
	// request was untraced.
	sc obs.SpanContext
}

// CoalesceConfig shapes the write coalescer.
type CoalesceConfig struct {
	// QueueDepth bounds each shard's pending queue; a full queue sheds
	// (default 1024 items/shard).
	QueueDepth int
	// BatchMax caps how many queued items one fold pass drains
	// (default 512).
	BatchMax int
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
}

// withDefaults fills zero fields.
func (c CoalesceConfig) withDefaults() CoalesceConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 512
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// coalescer owns the per-shard queues and workers.
type coalescer struct {
	cfg    CoalesceConfig
	queues []chan *pendingItem
	quit   chan struct{}
	wg     sync.WaitGroup

	// shed counts submissions dropped by admission control since the
	// coalescer started (per server, unlike the process-wide obs counter;
	// surfaced on /healthz via CoalesceStats).
	shed atomic.Uint64

	// mu serializes enqueues against Close: enqueue holds the read side, so
	// once Close holds the write side and flips closed, no new item can
	// enter a queue and the final drain is complete.
	mu     sync.RWMutex
	closed bool
}

// EnableCoalescing switches the batch ingest path to per-shard write
// coalescing: one worker per shard folds queued submissions in arrival
// order, and full queues shed with 429 + Retry-After. Call before serving;
// calling on a server that already coalesces is a no-op. Stop the workers
// with Close.
func (s *Server) EnableCoalescing(cfg CoalesceConfig) {
	if s.coal != nil {
		return
	}
	c := &coalescer{
		cfg:    cfg.withDefaults(),
		queues: make([]chan *pendingItem, len(s.shards)),
		quit:   make(chan struct{}),
	}
	for i := range c.queues {
		c.queues[i] = make(chan *pendingItem, c.cfg.QueueDepth)
	}
	s.coal = c
	obs.Default.GaugeFunc("cloud_submit_queue_depth", func() float64 {
		n := 0
		for _, q := range c.queues {
			n += len(q)
		}
		return float64(n)
	})
	c.wg.Add(len(s.shards))
	for i := range s.shards {
		go s.coalesceWorker(i)
	}
}

// Coalescing reports whether the batch path runs through the coalescer.
func (s *Server) Coalescing() bool { return s.coal != nil }

// Close stops the coalescer workers, folding everything already queued
// before returning. Safe to call multiple times and on a server that never
// enabled coalescing. After Close, batch submissions shed (the server is
// shutting down).
func (s *Server) Close() {
	c := s.coal
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.quit)
	c.wg.Wait()
}

// enqueue appends items to their shard queues without blocking. Items that
// don't fit (or arrive after Close) are marked shed immediately; the rest
// will have their outcome written by a shard worker. Returns the number
// shed. done must have been Add'ed for len(items) by the caller; shed items
// are Done'd here.
func (s *Server) enqueue(items []*pendingItem) (shed int) {
	c := s.coal
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, it := range items {
		if c.closed {
			it.out.Status = statusShed
			it.done.Done()
			shed++
			continue
		}
		q := c.queues[fnv1a(it.roadID)&s.shardMask]
		select {
		case q <- it:
		default:
			it.out.Status = statusShed
			it.done.Done()
			shed++
		}
	}
	if shed > 0 {
		c.shed.Add(uint64(shed))
		obsSubmitShed.Add(uint64(shed))
		batchItemCounter(statusShed).Add(uint64(shed))
	}
	return shed
}

// CoalesceStats reports the write coalescer's health for probes (/healthz):
// whether coalescing is enabled, the items currently queued across shards,
// and the total submissions shed by admission control.
func (s *Server) CoalesceStats() (enabled bool, queued int, shed uint64) {
	c := s.coal
	if c == nil {
		return false, 0, 0
	}
	return true, c.queueDepth(), c.shed.Load()
}

// coalesceWorker drains shard i's queue until Close. Each pass collects up
// to BatchMax items that are already waiting and folds them in one shot.
func (s *Server) coalesceWorker(i int) {
	c := s.coal
	defer c.wg.Done()
	q := c.queues[i]
	buf := make([]*pendingItem, 0, c.cfg.BatchMax)
	for {
		select {
		case it := <-q:
			buf = s.collect(append(buf[:0], it), q)
			s.foldShard(&s.shards[i], buf)
		case <-c.quit:
			// Drain what made it into the queue before the close; enqueue
			// is excluded by c.mu, so an empty queue here is final.
			for {
				select {
				case it := <-q:
					buf = s.collect(append(buf[:0], it), q)
					s.foldShard(&s.shards[i], buf)
				default:
					return
				}
			}
		}
	}
}

// collect greedily drains waiting items into buf, up to BatchMax.
func (s *Server) collect(buf []*pendingItem, q chan *pendingItem) []*pendingItem {
	for len(buf) < s.coal.cfg.BatchMax {
		select {
		case it := <-q:
			buf = append(buf, it)
		default:
			return buf
		}
	}
	return buf
}

// foldShard folds one collected batch into the shard's state:
//
//  1. one shard-lock hold reserves every idempotency key (duplicates are
//     settled here and skip the fold),
//  2. one road-lock hold per road group adds that road's submissions in
//     arrival order and bumps the generation once per accepted item,
//  3. one shard-lock hold releases the keys of rejected submissions so
//     they stay retryable.
//
// The per-cell arithmetic is exactly RobustAccumulator.AddDeviceReport in the
// same order the direct path would have run, so the fused output is
// bit-identical.
//
// When any folded item carries a span context, the whole pass is wrapped in
// a fold span — its own single-span trace, always kept by the tail sampler
// (keep=fold) — that links back to each distinct request span it folded for,
// annotated with the robust-fusion outcome (downweighted/trimmed/clamped
// cells) so a trace shows what trust machinery did to a submission.
func (s *Server) foldShard(sh *shard, items []*pendingItem) {
	obsCoalesceFolds.Inc()
	obsCoalesceBatch.Observe(float64(len(items)))

	var fold *obs.Span
	if tr := s.tracer(); tr.Enabled() {
		var linked []obs.SpanContext
		for _, it := range items {
			if !it.sc.IsValid() {
				continue
			}
			dup := false
			for _, sc := range linked {
				if sc == it.sc {
					dup = true
					break
				}
			}
			if !dup {
				linked = append(linked, it.sc)
			}
		}
		if len(linked) > 0 {
			fold = tr.Start("coalesce:fold", "cloud",
				obs.L("keep", "fold"), obs.L("batch", strconv.Itoa(len(items))))
			for _, sc := range linked {
				fold.Link(sc)
			}
		}
	}

	sh.mu.Lock()
	for _, it := range items {
		if it.key != "" && sh.dedup.reserve(it.key) {
			it.out.Status = statusDuplicate
		}
	}
	sh.mu.Unlock()

	// Group by road preserving arrival order, both across groups and
	// within each group.
	order := make([]string, 0, 8)
	groups := make(map[string][]*pendingItem, 8)
	for _, it := range items {
		if it.out.Status == statusDuplicate {
			continue
		}
		if _, ok := groups[it.roadID]; !ok {
			order = append(order, it.roadID)
		}
		groups[it.roadID] = append(groups[it.roadID], it)
	}

	var accepted uint64
	var robust fusion.FoldReport
	var rejectedKeys []string
	for _, road := range order {
		group := groups[road]
		rs := s.roadFor(road)
		rs.mu.Lock()
		for _, it := range group {
			var de *deviceEntry
			if it.device != "" {
				de = s.deviceFor(it.device)
			}
			rep, err := rs.addLocked(it.p, de)
			if err != nil {
				it.out.Status = statusRejected
				it.out.Error = err.Error()
				if it.key != "" {
					rejectedKeys = append(rejectedKeys, it.key)
				}
				continue
			}
			robust.Downweighted += rep.Downweighted
			robust.Trimmed += rep.Trimmed
			robust.Clamped += rep.Clamped
			it.out.Status = statusAccepted
			rs.gen++
			accepted++
		}
		rs.mu.Unlock()
	}
	if len(rejectedKeys) > 0 {
		sh.mu.Lock()
		for _, k := range rejectedKeys {
			sh.dedup.release(k)
		}
		sh.mu.Unlock()
	}
	if accepted > 0 {
		s.totalGen.Add(accepted)
	}
	var dups, rejected int
	for _, it := range items {
		switch it.out.Status {
		case statusAccepted:
			batchItemCounter(statusAccepted).Inc()
		case statusDuplicate:
			batchItemCounter(statusDuplicate).Inc()
			dups++
		case statusRejected:
			batchItemCounter(statusRejected).Inc()
			rejected++
		}
	}
	// End the fold span before releasing the handlers: by the time a batch
	// response reaches the client, the fold's link into that request trace is
	// already in the trace store.
	if fold != nil {
		fold.Annotate("accepted", strconv.FormatUint(accepted, 10))
		fold.Annotate("duplicate", strconv.Itoa(dups))
		fold.Annotate("rejected", strconv.Itoa(rejected))
		fold.Annotate("downweighted_cells", strconv.FormatUint(robust.Downweighted, 10))
		fold.Annotate("trimmed_cells", strconv.FormatUint(robust.Trimmed, 10))
		fold.Annotate("clamped_cells", strconv.FormatUint(robust.Clamped, 10))
		fold.End()
	}
	for _, it := range items {
		it.done.Done()
	}
}

// foldDirect is the non-coalescing batch fold: per-item SubmitIdempotent,
// used when EnableCoalescing was not called. It still amortizes the HTTP
// and decode cost across the batch, just not the lock acquisitions.
func (s *Server) foldDirect(items []BatchItem, results []BatchItemResult) {
	for i := range items {
		dup, err := s.SubmitIdempotentDevice(items[i].RoadID, items[i].Key, items[i].Device, items[i].Profile)
		switch {
		case err != nil:
			results[i] = BatchItemResult{Status: statusRejected, Error: err.Error()}
			batchItemCounter(statusRejected).Inc()
		case dup:
			results[i] = BatchItemResult{Status: statusDuplicate}
			batchItemCounter(statusDuplicate).Inc()
		default:
			results[i] = BatchItemResult{Status: statusAccepted}
			batchItemCounter(statusAccepted).Inc()
		}
	}
}

// retryAfter returns the 429 hint in whole seconds (minimum 1).
func (c *coalescer) retryAfter() int {
	secs := int(c.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// queueDepth returns the total queued items (for tests and health checks).
func (c *coalescer) queueDepth() int {
	n := 0
	for _, q := range c.queues {
		n += len(q)
	}
	return n
}
