// Command e2ebench is the repository's end-to-end benchmark: simulated
// phones drive the paper's 164.8 km city, estimate road gradients on the
// device, and the cloud folds their uploads and answers route and emission
// queries on the resulting map. One run measures one workload:
//
//	e2ebench --workload citymap|serve-read|serve-mixed --seed N --seconds S --trace 0|1
//
// Inputs are generated from --seed before timing starts; the program under
// test only ever sees the generated inputs. The last line of standard output
// is one JSON object with the run's correctness verdict, the operations
// attempted and failed, and the metrics: the end-to-end ones with --trace 0,
// the per-layer ones (from spans around each layer call) with --trace 1.
// Every metric is also printed by name, with its unit, on the lines before.
// See NOTES.md for what each metric measures on each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// spec names one reported metric.
type spec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported on every
// workload by the untraced run. NOTES.md maps each to what it measures on
// each workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"ok_pct", "%"},
	{"map_mre_pct", "%"},
	{"primary_ms", "ms"},
	{"secondary_ms", "ms"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []spec{
	// Both quantiles behind primary_ms and secondary_ms (NOTES.md, "Noise").
	{"primary_ms_p50", "ms"},
	{"primary_ms_p90", "ms"},
	{"secondary_ms_p50", "ms"},
	{"secondary_ms_p90", "ms"},
	// The workload-specific end-to-end numbers, as the traced run sees them.
	{"drive_ms_per_km_p50", "ms/km"},
	{"drive_ms_per_km_p99", "ms/km"},
	{"stream_ms_per_km", "ms/km"},
	{"map_km_per_s", "km/s"},
	{"route_ms_p50", "ms"},
	{"route_ms_p99", "ms"},
	{"emissions_ms_p99", "ms"},
	{"upload_ms_p50", "ms"},
	{"upload_ms_p99", "ms"},
	{"visible_ms_p50", "ms"},
	{"visible_ms_p99", "ms"},
	{"visible_next_route_ms_p50", "ms"},
	{"failed_pct", "%"},
	{"route_regret_pct", "%"},
	// core and fusion: the phone estimator.
	{"core.stream_ns_per_record", "ns"},
	{"core.adjust_ms_per_km", "ms/km"},
	{"core.estimate_track_ms_per_km", "ms/km"},
	{"core.allocs_per_km", "1/km"},
	{"core.alloc_mb_per_km", "MB/km"},
	{"core.gate_rejected", "count"},
	{"core.filter_resets", "count"},
	{"fusion.fuse_tracks_ms_per_km", "ms/km"},
	{"fusion.quarantined_tracks", "count"},
	{"fuel.map_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	// cloud: codec, HTTP, coalescer, store.
	{"cloud.upload_rtt_ms_p99", "ms"},
	{"cloud.wire_bytes_per_km", "B/km"},
	{"cloud.queue_depth_max", "count"},
	{"cloud.backlog_end", "count"},
	{"cloud.fold_wait_ms_p99", "ms"},
	{"cloud.items_accepted", "count"},
	{"cloud.items_duplicate", "count"},
	{"cloud.items_rejected", "count"},
	{"cloud.items_shed", "count"},
	{"cloud.items_errored", "count"},
	{"cloud.http_overhead_us", "us"},
	// ecoroute and emission: refreshes, re-customization, search, tables.
	{"ecoroute.route_engine_us_mean", "us"},
	{"ecoroute.refreshes", "count"},
	{"ecoroute.refresh_ms_total", "ms"},
	{"ecoroute.cost_cache_hit_ratio", "ratio"},
	{"ecoroute.store_reads_per_refresh", "count"},
	{"ecoroute.store_read_us_mean", "us"},
	{"ecoroute.cch_recomputed_arcs", "count"},
	{"emission.table_ms", "ms"},
	{"emission.rebuilds", "count"},
	// The load generator and the tracing itself.
	{"gen.late_ms_p99", "ms"},
	{"self.core_ms", "ms"},
	{"self.fusion_ms", "ms"},
	{"self.fuel_ms", "ms"},
	{"self.emission_ms", "ms"},
	{"self.cloud_ms", "ms"},
	{"self.bench_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

// options are the command-line arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	// failures lists every correctness check that did not hold.
	failures []string
	// notes are extra lines for the human-readable part of the output.
	notes []string
	spans *tracer
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workers is the load's concurrency: one worker goroutine per CPU.
func workers() int { return runtime.NumCPU() }

func main() {
	var opt options
	var traced int
	flag.StringVar(&opt.workload, "workload", "", "citymap | serve-read | serve-mixed")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed")
	flag.IntVar(&opt.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&traced, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	opt.trace = traced == 1
	if flag.NArg() > 0 || opt.seconds < 1 || (traced != 0 && traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var run func(options) (*report, error)
	switch opt.workload {
	case "citymap":
		run = runCitymap
	case "serve-read", "serve-mixed":
		run = runServe
	default:
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want citymap | serve-read | serve-mixed)\n", opt.workload)
		os.Exit(2)
	}
	rep, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", opt.workload, err)
		os.Exit(1)
	}
	if rep.spans != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
		if err := rep.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			os.Exit(1)
		}
	}
	if err := emit(os.Stdout, opt, rep); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", opt.workload, err)
		os.Exit(1)
	}
	if len(rep.failures) > 0 {
		os.Exit(1)
	}
}

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric by name and then the result line.
func emit(w *os.File, opt options, rep *report) error {
	for _, n := range rep.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, f := range rep.failures {
		fmt.Fprintln(w, "# CHECK FAILED:", f)
	}
	want := endToEnd
	if opt.trace {
		want = perLayer
	}
	out := make(map[string]metricJSON, len(want))
	for _, s := range want {
		v, ok := rep.metrics[s.name]
		if !ok && !opt.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metricJSON{Value: v, Unit: s.unit}
	}
	// Everything measured is printed, including the other set's metrics.
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	units := make(map[string]string)
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		units[s.name] = s.unit
	}
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, rep.metrics[n], units[n])
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{len(rep.failures) == 0, rep.attempted, rep.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// medianDuration is the median of a few set-up repetitions.
func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// heapLiveMB is the program's memory: the mean live heap while it ran,
// less the live heap of the inputs it was given.
func heapLiveMB(live float64, inputs uint64) float64 {
	return (live - float64(inputs)) / (1 << 20)
}
