// Command perfbench is the repository's end-to-end benchmark. It puts
// frame traffic through the real segmentation service — server.New's
// Handler behind a loopback httptest server — or, for video_offline,
// through the sslic-video tool in a child process, checks every output
// for correctness, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer split) by name and unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload warm_streams --seed 1 --seconds 35 --trace 0
//
// README.md in this directory documents each workload, each metric and
// the layer-to-metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	video    string // path of the sslic-video binary
	out      string // directory for trace files
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner executes one workload. It returns the end-to-end metrics when
// o.trace is false and the per-layer metrics when it is true.
type runner func(o options) (*result, error)

var workloads = map[string]runner{
	"warm_streams":  runWarmStreams,
	"hd_fixed":      runHDFixed,
	"video_offline": runVideoOffline,
}

// endToEnd and perLayer are the metric names and units of
// BENCHMARK.json; every run reports exactly one of the two sets.
var endToEnd = map[string]string{
	"setup_s":                 "s",
	"frames_per_s":            "1/s",
	"latency_p50_ms":          "ms",
	"latency_tail_ms":         "ms",
	"deadline_met_ratio":      "ratio",
	"ok_ratio":                "ratio",
	"undegraded_ratio":        "ratio",
	"cpu_ms_per_frame":        "ms",
	"boundary_recall":         "ratio",
	"undersegmentation_error": "ratio",
	"max_rss_mb":              "MB",
	"live_heap_mb":            "MB",
}

var perLayer = map[string]string{
	"sslic.assign_ms":            "ms",
	"sslic.assign_ns_per_calc":   "ns",
	"sslic.colorconv_ms":         "ms",
	"sslic.init_ms":              "ms",
	"sslic.update_ms":            "ms",
	"sslic.other_ms":             "ms",
	"sslic.segment_ms":           "ms",
	"server.handler_ms":          "ms",
	"server.unattributed_ms":     "ms",
	"imgio.decode_ms":            "ms",
	"pipeline.queue_wait_ms":     "ms",
	"pipeline.warm_ratio":        "ratio",
	"wire.response_bytes":        "bytes",
	"wire.decode_ms":             "ms",
	"quality.churn":              "ratio",
	"runtime.allocs_per_frame":   "count",
	"runtime.alloc_kb_per_frame": "KB",
	"runtime.gc_cpu_fraction":    "ratio",
	"pipeline.delivery_gap_ms":   "ms",
	"pipeline.segment_stage_ms":  "ms",
	"sslic.distance_calcs":       "count",
	"sslic.subset_passes":        "count",
	"hw.est_mj_per_frame":        "mJ",
	"bench.generator_lag_ms":     "ms",
	"bench.tracing_overhead":     "ratio",
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "0 prints the end-to-end metrics, 1 runs the traced split and prints the per-layer metrics")
	flag.StringVar(&o.video, "video", "", "path of the sslic-video binary (video_offline only)")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for the Chrome trace files of traced runs")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", ")))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %g", o.seconds))
	}
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	o.trace = trace == 1
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, trace)
	fmt.Printf("host: %s\n", hostFingerprint())

	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			fatal(fmt.Errorf("internal: workload %s did not report %s", o.workload, name))
		}
		if m.Unit != unit {
			fatal(fmt.Errorf("internal: %s reported in %s, want %s", name, m.Unit, unit))
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			delete(res.Metrics, name)
		}
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics writes the human-readable metric table.
func printMetrics(res *result) {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("frames: attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// hostFingerprint identifies the machine a run measured, so numbers from
// different hosts are never compared as if they were one.
func hostFingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d cpu_model=%q go=%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// traceFile names the Chrome trace file of a traced run.
func traceFile(o options) string {
	return filepath.Join(o.out, fmt.Sprintf("trace_%s_seed%d.json", o.workload, o.seed))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
