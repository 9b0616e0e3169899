package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sslic/internal/server"
)

// requestHeader carries the benchmark's request ID from the client to
// the traced handler wrapper, which puts it in the request context so
// the segment backend can name the request it is serving.
const requestHeader = "X-Bench-Request"

var nextRequestID atomic.Uint64

// request is one pre-encoded frame and how to send it.
type request struct {
	body  []byte // PPM frame
	query string // /v1/segment query string
	key   string // X-API-Key; empty for anonymous traffic
}

// exchange is the client's record of one request/response.
type exchange struct {
	id       uint64
	input    int    // index of the input frame within the workload
	stream   string // stream ID, empty for stills
	deadline time.Duration

	due, sent, done time.Time
	lag             time.Duration // generator lateness (open loop only)
	status          int
	level           int     // X-Degradation-Level
	warm            bool    // X-Sslic-Warm
	queueNs         int64   // X-Cost-Queue-Ns
	decodeNs        int64   // X-Cost-Decode-Ns
	estPJ           float64 // X-Cost-Est-Pj
	churn           float64 // X-Quality-Churn; -1 when absent
	wireBase        string  // X-Wire-Base
	bytes           int
	decodeDur       time.Duration // client-side wire.Decode, timed after the window
	body            []byte        // retained only where a check needs it after the window
	ok              bool          // 2xx and passed the correctness check
	why             string        // first reason a check failed
}

func (x *exchange) success() bool { return x.status >= 200 && x.status < 300 }

// latency is timed from the due time: for the open loop a stalled
// generator or a busy connection therefore counts against the frame.
func (x *exchange) latency() time.Duration { return x.done.Sub(x.due) }

func (x *exchange) fail(why string) {
	x.ok = false
	if x.why == "" {
		x.why = why
	}
}

// service is one running instance of the program under test.
type service struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	url    string
}

// startService constructs the server and mounts its Handler on a
// loopback listener. A non-nil tracer wraps the handler and the segment
// backend with its timing hooks.
func startService(cfg server.Config, conns int, tr *tracer) (*service, error) {
	if tr != nil {
		cfg.Segment = tr.segment
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.wrap(h)
	}
	ts := httptest.NewServer(h)
	transport := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &service{
		srv:    srv,
		ts:     ts,
		client: &http.Client{Transport: transport},
		url:    ts.URL + "/v1/segment",
	}, nil
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// do sends one request and reads the whole response body into buf. The
// exchange's done time is taken once the last body byte has arrived.
func (s *service) do(ctx context.Context, req request, x *exchange, buf *bytes.Buffer) error {
	x.id = nextRequestID.Add(1)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"?"+req.query, bytes.NewReader(req.body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "image/x-portable-pixmap")
	hr.Header.Set(requestHeader, strconv.FormatUint(x.id, 10))
	if req.key != "" {
		hr.Header.Set("X-API-Key", req.key)
	}
	x.sent = time.Now()
	if x.due.IsZero() {
		x.due = x.sent
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		x.done = time.Now()
		x.fail("transport: " + err.Error())
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	x.done = time.Now()
	x.status = resp.StatusCode
	x.bytes = buf.Len()
	h := resp.Header
	x.level, _ = strconv.Atoi(h.Get("X-Degradation-Level"))
	x.warm = h.Get("X-Sslic-Warm") == "true"
	x.queueNs, _ = strconv.ParseInt(h.Get("X-Cost-Queue-Ns"), 10, 64)
	x.decodeNs, _ = strconv.ParseInt(h.Get("X-Cost-Decode-Ns"), 10, 64)
	x.estPJ, _ = strconv.ParseFloat(h.Get("X-Cost-Est-Pj"), 64)
	x.churn = -1
	if v := h.Get("X-Quality-Churn"); v != "" {
		x.churn, _ = strconv.ParseFloat(v, 64)
	}
	x.wireBase = h.Get("X-Wire-Base")
	if err != nil {
		x.fail("reading body: " + err.Error())
		return err
	}
	x.ok = x.success()
	if !x.ok {
		x.fail(fmt.Sprintf("HTTP %d: %s", x.status, bytes.TrimSpace(buf.Bytes())))
	}
	return nil
}

// inproc is a workload driven through the in-process service.
type inproc interface {
	// config is the server configuration of the workload.
	config() server.Config
	// conns is the number of client connections (at most 2).
	conns() int
	// setupRepeats is how many times a run constructs the service and
	// serves its first frames; setup_s is the median.
	setupRepeats() int
	// tailPct is the workload's fixed latency-tail percentile.
	tailPct() float64
	// warmup returns the set-up requests, one per connection, sent
	// concurrently: the first frames whose lazy costs set-up includes.
	// They carry no stream ID, so the pool spreads them round-robin
	// and every worker serves one.
	warmup() []request
	// drive sends the timed traffic for window. It keeps in the window
	// only the checks that cost next to nothing: the status and, where
	// the response is known in advance, a byte compare.
	drive(svc *service, window time.Duration) []*exchange
	// finish runs after the timed window: it decodes the responses with
	// wire.Decode and checks the label maps, checks exact-count drift
	// (with the traced backend's counts when tr is non-nil), and scores
	// boundary recall and undersegmentation error against the exact
	// ground truth.
	finish(xs []*exchange, tr *tracer) (br, use float64, err error)
	// exact returns the workload's per-frame exact counts (distance
	// calcs, subset passes, response bytes, estimated mJ).
	exact(xs []*exchange, tr *tracer) exactCounts
}

// exactCounts are the per-frame counts a pure speed change must not move.
type exactCounts struct {
	calcs, passes, bytes, mJ float64
}

// phase is one measured pass over a workload: set-up, then the timed
// window.
type phase struct {
	xs     []*exchange
	wall   time.Duration
	cpu    time.Duration
	rt0    runtimeSnap
	rt1    runtimeSnap
	setup  []float64
	rssMB  float64
	liveMB float64
}

// measure runs set-up (repeated) and the timed window. Inputs must
// already be generated: nothing the benchmark does for itself is on the
// set-up clock or in the window apart from sending and reading the
// requests and the in-window checks drive keeps.
func measure(w inproc, window time.Duration, repeats int, tr *tracer) (*phase, error) {
	// Return input-generation garbage to the OS and take the live-heap
	// and RSS baselines, which hold the benchmark's retained inputs, so
	// the peak RSS and the live heap reported below are what set-up and
	// serving add to them.
	runtime.GC()
	debug.FreeOSMemory()
	base := liveHeapMB()
	rss := startRSS()
	p := &phase{}
	// Host speed drifts over seconds, so the set-up repeats are split
	// around the window: their median then covers the run's span rather
	// than the second or two before the window. The last set-up before
	// the window builds the server that serves it.
	after := repeats / 2
	var svc *service
	for r := 0; r < repeats-after; r++ {
		if svc != nil {
			closeAndCollect(svc)
		}
		s, secs, err := setUp(w, tr)
		if err != nil {
			rss.Stop()
			return nil, err
		}
		svc = s
		p.setup = append(p.setup, secs)
	}
	p.cpu = -cpuTime()
	p.rt0 = readRuntime()
	start := time.Now()
	p.xs = w.drive(svc, window)
	p.wall = time.Since(start)
	p.cpu += cpuTime()
	p.rt1 = readRuntime()
	// The response bodies kept for the checks after the window are the
	// benchmark's, not the server's.
	kept := 0
	for _, x := range p.xs {
		kept += cap(x.body)
	}
	p.liveMB = liveHeapMB() - base - float64(kept)/(1<<20)
	p.rssMB = rss.Stop()
	for r := 0; r < after; r++ {
		closeAndCollect(svc)
		s, secs, err := setUp(w, tr)
		if err != nil {
			return nil, err
		}
		svc = s
		p.setup = append(p.setup, secs)
	}
	svc.close()
	return p, nil
}

// setUp builds one service and serves its first frames, and returns it
// with the time that took in seconds.
func setUp(w inproc, tr *tracer) (*service, float64, error) {
	t0 := time.Now()
	s, err := startService(w.config(), w.conns(), tr)
	if err != nil {
		return nil, 0, err
	}
	if err := sendWarmup(s, w.warmup()); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return s, time.Since(t0).Seconds(), nil
}

// closeAndCollect closes a service and collects it off the clock, so
// that its buffers count neither in the next set-up's time nor in the
// peak RSS of the server that serves the window.
func closeAndCollect(s *service) {
	s.close()
	runtime.GC()
	debug.FreeOSMemory()
}

// sendWarmup sends the set-up requests concurrently and requires every
// one to succeed.
func sendWarmup(s *service, reqs []request) error {
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req request) {
			defer wg.Done()
			var buf bytes.Buffer
			x := &exchange{}
			if err := s.do(context.Background(), req, x, &buf); err != nil {
				errs[i] = err
			} else if !x.ok {
				errs[i] = fmt.Errorf("warm-up request: %s", x.why)
			}
		}(i, req)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// closedLoop runs conns clients that each send their next request as
// soon as the previous response has been read and checked, until window
// has elapsed. next hands out the input sequence (shared by all
// clients); check validates one response while its body is in buf.
func closedLoop(svc *service, conns int, window time.Duration,
	next func() (int, request, time.Duration), check func(x *exchange, buf *bytes.Buffer)) []*exchange {
	start := time.Now()
	per := make([][]*exchange, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Since(start) < window {
				input, req, deadline := next()
				x := &exchange{input: input, deadline: deadline}
				if err := svc.do(context.Background(), req, x, &buf); err == nil && x.ok {
					check(x, &buf)
				}
				per[c] = append(per[c], x)
			}
		}(c)
	}
	wg.Wait()
	var xs []*exchange
	for _, p := range per {
		xs = append(xs, p...)
	}
	return xs
}

// endToEndMetrics reduces one untraced phase to the end-to-end metrics.
func endToEndMetrics(p *phase, tailPct, br, use float64) map[string]metric {
	var lat []float64
	completed, met, ok, undegraded := 0, 0, 0, 0
	for _, x := range p.xs {
		if x.ok {
			ok++
		}
		if !x.success() {
			continue
		}
		completed++
		lat = append(lat, ms(x.latency()))
		if x.latency() <= x.deadline {
			met++
		}
		if x.level == 0 {
			undegraded++
		}
	}
	n := float64(len(p.xs))
	m := map[string]metric{
		"setup_s":                 {median(p.setup), "s"},
		"frames_per_s":            {float64(completed) / p.wall.Seconds(), "1/s"},
		"latency_p50_ms":          {median(lat), "ms"},
		"latency_tail_ms":         {tail(lat, tailPct), "ms"},
		"deadline_met_ratio":      {float64(met) / n, "ratio"},
		"ok_ratio":                {float64(ok) / n, "ratio"},
		"undegraded_ratio":        {ratio(undegraded, completed), "ratio"},
		"cpu_ms_per_frame":        {ms(p.cpu) / float64(max(completed, 1)), "ms"},
		"boundary_recall":         {br, "ratio"},
		"undersegmentation_error": {use, "ratio"},
		"max_rss_mb":              {p.rssMB, "MB"},
		"live_heap_mb":            {p.liveMB, "MB"},
	}
	fmt.Printf("set-up: %d repeats, median %.4fs (each: %s)\n", len(p.setup), median(p.setup), fmtFloats(p.setup, "%.4f"))
	fmt.Printf("window: %.3fs wall, %d sent, %d completed 2xx, %d ok, %d degraded (degraded_ratio=%.4f)\n",
		p.wall.Seconds(), len(p.xs), completed, ok, completed-undegraded, 1-ratio(undegraded, completed))
	return m
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fmtFloats(xs []float64, f string) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, f, x)
	}
	return b.String()
}

// failures counts the exchanges that are not ok and prints the first few
// reasons.
func failures(xs []*exchange) (failed int, mismatched bool) {
	shown := 0
	for _, x := range xs {
		if x.ok {
			continue
		}
		failed++
		if x.success() {
			mismatched = true // a 2xx response that failed a correctness check
		}
		if shown < 5 {
			fmt.Printf("FAILED frame (input %d, stream %q): %s\n", x.input, x.stream, x.why)
			shown++
		}
	}
	return failed, mismatched
}

// runInProcess is the common runner of the in-process workloads. With
// o.trace false it measures one untraced window and reports the
// end-to-end metrics. With o.trace true it measures half the window
// untraced and half traced, and reports the per-layer split, the
// runtime counters of the untraced half and the tracing overhead.
func runInProcess(o options, w inproc) (*result, error) {
	window := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		p, err := measure(w, window, w.setupRepeats(), nil)
		if err != nil {
			return nil, err
		}
		br, use, err := w.finish(p.xs, nil)
		if err != nil {
			return nil, err
		}
		failed, mismatched := failures(p.xs)
		return &result{
			Correct:   !mismatched,
			Attempted: len(p.xs),
			Failed:    failed,
			Metrics:   endToEndMetrics(p, w.tailPct(), br, use),
		}, nil
	}

	plain, err := measure(w, window/2, 1, nil)
	if err != nil {
		return nil, err
	}
	if _, _, err := w.finish(plain.xs, nil); err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := measure(w, window/2, 1, tr)
	if err != nil {
		return nil, err
	}
	if _, _, err := w.finish(traced.xs, tr); err != nil {
		return nil, err
	}
	all := append(append([]*exchange(nil), plain.xs...), traced.xs...)
	failed, mismatched := failures(all)
	m := tr.layers(traced.xs)
	addRuntimeMetrics(m, plain)
	ex := w.exact(traced.xs, tr)
	m["sslic.distance_calcs"] = metric{ex.calcs, "count"}
	m["sslic.subset_passes"] = metric{ex.passes, "count"}
	m["wire.response_bytes"] = metric{ex.bytes, "bytes"}
	m["hw.est_mj_per_frame"] = metric{ex.mJ, "mJ"}
	fmt.Printf("exact counts per frame: distance_calcs=%.0f subset_passes=%.4g response_bytes=%.1f est_mj=%.9g\n",
		ex.calcs, ex.passes, ex.bytes, ex.mJ)
	m["bench.generator_lag_ms"] = metric{generatorLag(all), "ms"}
	p50plain := median(latencies(plain.xs))
	p50traced := median(latencies(traced.xs))
	m["bench.tracing_overhead"] = metric{p50traced / p50plain, "ratio"}
	fmt.Printf("tracing overhead: traced p50 %.3fms / untraced p50 %.3fms = %.4f\n", p50traced, p50plain, p50traced/p50plain)
	m["pipeline.delivery_gap_ms"] = metric{0, "ms"}
	m["pipeline.segment_stage_ms"] = metric{0, "ms"}
	if err := tr.writeChrome(traceFile(o), traced.xs); err != nil {
		return nil, err
	}
	fmt.Printf("chrome trace: %s\n", traceFile(o))
	return &result{Correct: !mismatched, Attempted: len(all), Failed: failed, Metrics: m}, nil
}

func latencies(xs []*exchange) []float64 {
	var lat []float64
	for _, x := range xs {
		if x.success() {
			lat = append(lat, ms(x.latency()))
		}
	}
	return lat
}

// generatorLag is the 99th-percentile lateness of the open-loop
// generator (0 for closed loops, which have no schedule). A run whose
// generator fell behind by more than a tenth of a frame deadline is
// flagged: its latencies include the benchmark's own tardiness.
func generatorLag(xs []*exchange) float64 {
	var lags []float64
	limit := time.Duration(1<<63 - 1)
	for _, x := range xs {
		lags = append(lags, ms(x.lag))
		limit = min(limit, x.deadline/10)
	}
	lag := quantile(lags, 0.99)
	if lag > ms(limit) {
		fmt.Printf("WARNING: generator fell behind: p99 lag %.3fms exceeds %.3fms\n", lag, ms(limit))
	}
	return lag
}

// addRuntimeMetrics adds the Go runtime's allocation and GC counters
// over the untraced window. They are process-wide, so they include the
// client's share: sending each request and reading its response.
func addRuntimeMetrics(m map[string]metric, p *phase) {
	completed := 0
	for _, x := range p.xs {
		if x.success() {
			completed++
		}
	}
	n := float64(max(completed, 1))
	m["runtime.allocs_per_frame"] = metric{(p.rt1.allocObjects - p.rt0.allocObjects) / n, "count"}
	m["runtime.alloc_kb_per_frame"] = metric{(p.rt1.allocBytes - p.rt0.allocBytes) / 1024 / n, "KB"}
	gc := 0.0
	if d := p.rt1.totalCPU - p.rt0.totalCPU; d > 0 {
		gc = (p.rt1.gcCPU - p.rt0.gcCPU) / d
	}
	m["runtime.gc_cpu_fraction"] = metric{gc, "ratio"}
}
