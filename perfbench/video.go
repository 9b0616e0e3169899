package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sslic/internal/telemetry"
)

// video_offline drives the sslic-video tool — the repository's second
// frame engine — as an offline batch in child processes: one warm
// panning 481×321 stream per child, two pipeline workers. Everything is
// observed from outside through the tool's public surfaces: its
// per-frame table rows (timed on arrival), its stage lines, rusage of
// the child, and the Go runtime's gctrace lines.
const (
	videoFrames   = 40
	videoWorkers  = 2
	videoDeadline = 500 * time.Millisecond
	videoTailPct  = 95
)

// videoRow is one per-frame row of the tool's table.
type videoRow struct {
	at       time.Time
	index    int
	mode     string
	segMs    float64
	use, br  float64
	problems string
}

// childRun is one invocation of the tool.
type childRun struct {
	started, header, exited time.Time
	rows                    []videoRow
	cpu                     time.Duration
	maxRSSMB                float64
	liveMB, gcFrac          float64
	segStageMs              float64
	err                     string
}

var (
	rowRE     = regexp.MustCompile(`^\s*(\d+)\s+(cold|warm)\s+(\S+)\s+([\d.]+)\s+([\d.]+)\s+(\S+)\s*$`)
	gctraceRE = regexp.MustCompile(`^gc \d+ @[\d.]+s \d+%: \S+ ms clock, (\S+) ms cpu, (\d+)->(\d+)->(\d+) MB`)
	stageRE   = regexp.MustCompile(`^\s*segment:.*lat=([^/\s]+)/`)
)

func runChild(bin string, speed int) (*childRun, error) {
	cmd := exec.Command(bin,
		"-frames", strconv.Itoa(videoFrames), "-pipeline-workers", strconv.Itoa(videoWorkers),
		"-motion", "pan", "-speed", strconv.Itoa(speed), "-seed", strconv.Itoa(corpusSeed))
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &childRun{started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		now := time.Now()
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "stream:"):
			c.header = now
		case rowRE.MatchString(line):
			c.rows = append(c.rows, parseRow(now, rowRE.FindStringSubmatch(line)))
		case stageRE.MatchString(line):
			if d, err := time.ParseDuration(stageRE.FindStringSubmatch(line)[1]); err == nil {
				c.segStageMs = ms(d)
			}
		}
	}
	waitErr := cmd.Wait()
	c.exited = time.Now()
	if waitErr != nil {
		c.err = fmt.Sprintf("%v: %s", waitErr, bytes.TrimSpace(stderr.Bytes()))
	}
	if ps := cmd.ProcessState; ps != nil {
		c.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.maxRSSMB = float64(ru.Maxrss) / 1024 // KB on Linux
		}
	}
	// gctrace prints whole MB; the median over the child's collections
	// is steadier than the last one, which lands wherever the batch
	// happens to be in its buffer cycle. Its "ms cpu" field lists the
	// CPU time of each GC phase, separated by + and /.
	var live []float64
	var gcMs float64
	for _, line := range strings.Split(stderr.String(), "\n") {
		if m := gctraceRE.FindStringSubmatch(line); m != nil {
			for _, f := range strings.FieldsFunc(m[1], func(r rune) bool { return r == '+' || r == '/' }) {
				v, _ := strconv.ParseFloat(f, 64)
				gcMs += v
			}
			mb, _ := strconv.ParseFloat(m[4], 64)
			live = append(live, mb)
		}
	}
	c.liveMB = median(live)
	if c.cpu > 0 {
		c.gcFrac = gcMs / ms(c.cpu)
	}
	return c, nil
}

func parseRow(at time.Time, m []string) videoRow {
	r := videoRow{at: at, mode: m[2]}
	r.index, _ = strconv.Atoi(m[1])
	if d, err := time.ParseDuration(m[3]); err == nil {
		r.segMs = ms(d)
	}
	var err error
	if r.use, err = strconv.ParseFloat(m[4], 64); err != nil || r.use < 0 || r.use > 1 {
		r.problems = "USE " + m[4] + " outside [0, 1]"
	}
	if r.br, err = strconv.ParseFloat(m[5], 64); err != nil || r.br < 0 || r.br > 1 {
		r.problems = "BR " + m[5] + " outside [0, 1]"
	}
	return r
}

// check validates a child's output: every frame delivered once, in
// order, cold first then warm, with scores in range. It returns the
// number of valid frames.
func (c *childRun) check() int {
	if c.err != "" {
		fmt.Printf("FAILED child: %s\n", c.err)
		return 0
	}
	if c.header.IsZero() {
		fmt.Println("FAILED child: no stream header line")
		return 0
	}
	valid := 0
	for i, r := range c.rows {
		why := r.problems
		switch {
		case r.index != i:
			why = fmt.Sprintf("frame %d delivered at position %d", r.index, i)
		case i < videoWorkers && r.mode != "cold", i >= videoWorkers && r.mode != "warm":
			// Worker f mod N warm-starts frame f from frame f-N, so
			// the first frame of each worker runs cold.
			why = fmt.Sprintf("frame %d ran %s", i, r.mode)
		}
		if why != "" {
			fmt.Printf("FAILED frame %d: %s\n", i, why)
			continue
		}
		valid++
	}
	return valid
}

func runVideoOffline(o options) (*result, error) {
	if o.video == "" {
		return nil, fmt.Errorf("video_offline needs -video, the path of the sslic-video binary")
	}
	window := time.Duration(o.seconds * float64(time.Second))
	var runs []*childRun
	start := time.Now()
	// Children pan the corpus scene at 2, 3 or 4 px/frame in rotation
	// from a seed-chosen start.
	for i := int64(0); time.Since(start) < window; i++ {
		c, err := runChild(o.video, 2+int((o.seed+i)%3))
		if err != nil {
			return nil, err
		}
		runs = append(runs, c)
	}

	attempted, valid, rows := 0, 0, 0
	var setup, lat, gaps, use, br, rss, live, gcFrac, stage []float64
	var cpu, span time.Duration
	met, warm := 0, 0
	for _, c := range runs {
		attempted += videoFrames
		valid += c.check()
		rows += len(c.rows)
		cpu += c.cpu
		rss = append(rss, c.maxRSSMB)
		live = append(live, c.liveMB)
		gcFrac = append(gcFrac, c.gcFrac)
		stage = append(stage, c.segStageMs)
		if len(c.rows) == 0 || c.header.IsZero() {
			continue
		}
		setup = append(setup, c.rows[0].at.Sub(c.header).Seconds())
		span += c.rows[len(c.rows)-1].at.Sub(c.rows[0].at)
		for i, r := range c.rows {
			if i > 0 {
				gaps = append(gaps, ms(r.at.Sub(c.rows[i-1].at)))
			}
			lat = append(lat, r.segMs)
			if r.segMs <= ms(videoDeadline) {
				met++
			}
			if r.mode == "warm" {
				warm++
			}
			use = append(use, r.use)
			br = append(br, r.br)
		}
	}
	failed := attempted - valid
	fmt.Printf("children: %d runs of %d frames, %d rows, %d valid\n", len(runs), videoFrames, rows, valid)
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if !o.trace {
		fps := 0.0
		if span > 0 {
			fps = float64(len(gaps)) / span.Seconds()
		}
		fmt.Printf("set-up: %d children, median %.4fs (each: %s)\n", len(setup), median(setup), fmtFloats(setup, "%.4f"))
		res.Metrics = map[string]metric{
			"setup_s":                 {median(setup), "s"},
			"frames_per_s":            {fps, "1/s"},
			"latency_p50_ms":          {median(lat), "ms"},
			"latency_tail_ms":         {tail(lat, videoTailPct), "ms"},
			"deadline_met_ratio":      {ratio(met, attempted), "ratio"},
			"ok_ratio":                {ratio(valid, attempted), "ratio"},
			"undegraded_ratio":        {1, "ratio"}, // the tool has no degrade ladder
			"cpu_ms_per_frame":        {ms(cpu) / float64(max(rows, 1)), "ms"},
			"boundary_recall":         {mean(br), "ratio"},
			"undersegmentation_error": {mean(use), "ratio"},
			"max_rss_mb":              {median(rss), "MB"},
			"live_heap_mb":            {median(live), "MB"},
		}
		return res, nil
	}
	m := map[string]metric{}
	for name, unit := range perLayer {
		m[name] = metric{0, unit} // layers this workload does not reach
	}
	m["pipeline.delivery_gap_ms"] = metric{mean(gaps), "ms"}
	m["pipeline.segment_stage_ms"] = metric{median(stage), "ms"}
	m["sslic.segment_ms"] = metric{mean(lat), "ms"}
	m["pipeline.warm_ratio"] = metric{ratio(warm, rows), "ratio"}
	m["runtime.gc_cpu_fraction"] = metric{median(gcFrac), "ratio"}
	// The tool is observed through its own output either way, so the
	// traced run is the untraced one.
	m["bench.tracing_overhead"] = metric{1, "ratio"}
	fmt.Printf("pipeline: delivery gap mean %.3fms, segment stage p50 %.3fms, frame segment time %.3fms\n",
		mean(gaps), median(stage), mean(lat))
	res.Metrics = m
	if err := writeVideoTrace(traceFile(o), runs); err != nil {
		return nil, err
	}
	fmt.Printf("chrome trace: %s\n", traceFile(o))
	return res, nil
}

// writeVideoTrace writes each child as a span with its frame deliveries
// as instants.
func writeVideoTrace(path string, runs []*childRun) error {
	if len(runs) == 0 {
		return nil
	}
	var events []telemetry.TraceEvent
	for i, c := range runs {
		events = append(events, telemetry.TraceEvent{
			Name: "sslic-video", Track: "child", Start: c.started, Dur: c.exited.Sub(c.started),
			Args: map[string]any{"child": i, "cpu_ms": ms(c.cpu), "max_rss_mb": c.maxRSSMB},
		})
		for _, r := range c.rows {
			events = append(events, telemetry.TraceEvent{
				Name: "frame", Track: "delivery", Start: r.at,
				Args: map[string]any{"child": i, "frame": r.index, "mode": r.mode, "segment_ms": r.segMs},
			})
		}
	}
	last := runs[len(runs)-1]
	return writeTrace(path, &telemetry.TraceData{ID: "perfbench", Start: runs[0].started, Dur: last.exited.Sub(runs[0].started), Status: "ok", Events: events})
}
