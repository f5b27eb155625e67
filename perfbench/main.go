// Command perfbench is the repository benchmark. It runs one workload per
// invocation through the entry points the facade and CLI call (rt.Run,
// serve.Run and sim.Run, configured the way adavp.RunLive, RunLiveMulti and
// Run configure them), checks the outputs, and prints one JSON result line:
// end-to-end metrics from an untraced run (-trace 0) or per-layer metrics
// from a traced run (-trace 1). See NOTES.md for the workloads and metrics.
//
//	go run . -workload live-pixel -seed 1 -seconds 20 -trace 0
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
	"strings"
	"time"

	"adavp/internal/par"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, their sample counts, the percentile
// each tail metric uses, and the outcome of every correctness check.
type report struct {
	Metrics   map[string]metric `json:"-"`
	Samples   map[string]int    `json:"samples"`
	Tails     map[string]string `json:"percentiles"`
	Checks    map[string]bool   `json:"checks"`
	Notes     map[string]any    `json:"config"`
	Failures  []string          `json:"failures,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Host      map[string]any    `json:"host"`
}

func newReport() *report {
	return &report{
		Metrics: map[string]metric{}, Samples: map[string]int{}, Tails: map[string]string{},
		Checks: map[string]bool{}, Notes: map[string]any{},
	}
}

// set records a metric with its sample count; the unit comes from the
// metric tables below.
func (r *report) set(name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Sprintf("metric %s has no value (%d samples)", name, samples))
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unitOf[name]}
	r.Samples[name] = samples
}

// check records a named correctness check; a false one fails the run.
func (r *report) check(name string, ok bool, detail string) {
	if prev, seen := r.Checks[name]; !seen || prev {
		r.Checks[name] = ok
	}
	if !ok {
		r.fail(name + ": " + detail)
	}
}

func (r *report) fail(msg string) { r.Failures = append(r.Failures, msg) }

// Workloads and the metrics each run must emit. The names and units match
// BENCHMARK.json; main_test.go keeps the two in step.
var workloads = []string{"live-pixel", "serve-contended", "offline-pixel"}

var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"accuracy", "fraction"},
	{"mean_f1", "fraction"},
	{"fresh_share", "fraction"},
	{"calib_gap_p50_ms", "ms"},
	{"calib_gap_p90_ms", "ms"},
	{"result_lag_p50_ms", "ms"},
	{"result_lag_p99_ms", "ms"},
	{"detections_per_s", "1/s"},
	{"cpu_ms_per_frame", "ms"},
	{"offline_fps", "frames/s"},
	{"max_rss_mb", "MB"},
	{"detect_ok_share", "fraction"},
}

var perLayer = []struct{ name, unit string }{
	{"video.render_ms", "ms"},
	{"video.frames_consumed", "count"},
	{"imgproc.resize_ms", "ms"},
	{"imgproc.pyramid_ms", "ms"},
	{"detect.calls", "count"},
	{"detect.blob_ms", "ms"},
	{"detect.busy_s", "s"},
	{"features.shi_tomasi_ms", "ms"},
	{"track.inits", "count"},
	{"flow.lk_ms", "ms"},
	{"track.steps", "count"},
	{"track.features_live", "count"},
	{"rt.cycles", "count"},
	{"rt.tracked_of_buffered", "fraction"},
	{"rt.detector_busy_share", "fraction"},
	{"rt.tracker_busy_share", "fraction"},
	{"rt.cpu_unattributed_share", "fraction"},
	{"serve.slot_wait_ms", "ms"},
	{"serve.slot_exec_ms", "ms"},
	{"serve.batch_fill", "count"},
	{"serve.grants", "count"},
	{"serve.batches", "count"},
	{"serve.refused", "count"},
	{"serve.cancelled", "count"},
	{"obs.updates", "count"},
	{"obs.observe_ns", "ns"},
	{"obs.observe_allocs", "count"},
	{"obs.cpu_share", "fraction"},
	{"guard.timeouts", "count"},
	{"guard.retries", "count"},
	{"guard.downgrades", "count"},
	{"adapt.switches", "count"},
	{"adapt.mean_input_px", "px"},
	{"sim.detections", "count"},
	{"sim.tracked_frames", "count"},
	{"sim.remainder_ms_per_frame", "ms"},
	{"sim.stage_sum_error", "fraction"},
	{"trace.cpu_ms_per_frame", "ms"},
	{"trace.spans", "count"},
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, t := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, d := range t {
			m[d.name] = d.unit
		}
	}
	return m
}()

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traced   bool
	outDir   string
}

func main() {
	var c config
	var writeRef bool
	flag.StringVar(&c.workload, "workload", "", "workload: live-pixel|serve-contended|offline-pixel")
	flag.Uint64Var(&c.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&c.seconds, "seconds", 35, "measured seconds")
	flag.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics (untraced); 1: per-layer metrics (traced)")
	flag.BoolVar(&writeRef, "write-reference", false, "regenerate the committed offline-pixel reference and exit")
	flag.Parse()
	c.outDir = os.Getenv("CARGO_TARGET_DIR")
	if c.outDir == "" {
		c.outDir = ".bench_build"
	}
	if writeRef {
		if err := writeReference(referencePath()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(c config) error {
	if c.seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", c.seconds)
	}
	if c.trace != 0 && c.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", c.trace)
	}
	c.traced = c.trace == 1
	// Kernel worker counts above GOMAXPROCS measure oversubscription, not the
	// kernels; refuse them rather than record misleading rows.
	if w, p := par.Workers(), runtime.GOMAXPROCS(0); w > p {
		return fmt.Errorf("par.Workers() = %d exceeds GOMAXPROCS = %d", w, p)
	}
	r := newReport()
	r.Host = map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "par_workers": par.Workers(),
		"go_version": runtime.Version(), "cpu_model": cpuModel(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	r.Notes["workload"] = c.workload
	r.Notes["seed"] = c.seed
	r.Notes["seconds"] = c.seconds
	r.Notes["traced"] = c.traced
	var err error
	switch c.workload {
	case "live-pixel":
		err = runLivePixel(c, r)
	case "serve-contended":
		err = runServeContended(c, r)
	case "offline-pixel":
		err = runOfflinePixel(c, r)
	default:
		return fmt.Errorf("unknown -workload %q (want one of %v)", c.workload, workloads)
	}
	if err != nil {
		return err
	}
	want := endToEnd
	if c.traced {
		want = perLayer
	}
	correct := len(r.Failures) == 0
	out := make(map[string]metric, len(want))
	for _, m := range want {
		got, ok := r.Metrics[m.name]
		if !ok && !correct {
			return fmt.Errorf("checks failed before the metrics could be computed: %s", strings.Join(r.Failures, "; "))
		}
		if !ok {
			return fmt.Errorf("internal: metric %s not computed", m.name)
		}
		out[m.name] = got
	}
	// The record line: host, config, sample counts, percentiles and checks.
	rec, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(rec))
	for _, name := range sortedKeys(out) {
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %-9s n=%d\n", name, out[name].Value, out[name].Unit, r.Samples[name])
	}
	for _, f := range r.Failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	final, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(r.Attempted, 1), r.Failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	if !correct {
		return fmt.Errorf("%d correctness check(s) failed", len(r.Failures))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// benchDir is the directory holding this package's files, for the committed
// reference when run from the repository root or from the package itself.
func benchDir() string {
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err == nil {
		return "perfbench"
	}
	return "."
}

// setupTimes runs fn n times and returns the median duration in seconds;
// the last run's products are the ones the caller keeps.
func setupTimes(n int, fn func()) (float64, int) {
	ds := make([]float64, n)
	for i := range ds {
		runtime.GC()
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds), n
}
