package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"sslic/internal/imgio"
	"sslic/internal/sslic"
	"sslic/internal/telemetry"
)

// The traced run times the calls into each layer from outside, through
// the program's public hooks only: a wrapper around Handler(), and a
// Config.Segment backend that wraps sslic.SegmentContext and reads the
// phase clocks in Result.Stats. The two are tied to the client's request
// by a context value the handler wrapper sets from requestHeader. Spans
// stay in memory and are written as Chrome trace_event JSON at the end,
// by the same writer the service's /debug/trace export uses.

type requestIDKey struct{}

// serverSpans is what the hooks saw of one request.
type serverSpans struct {
	handlerStart, handlerEnd time.Time
	segStart, segEnd         time.Time
	stats                    sslic.Stats
	handled, segmented       bool
}

type tracer struct {
	mu   sync.Mutex
	reqs map[uint64]*serverSpans
}

func newTracer() *tracer { return &tracer{reqs: make(map[uint64]*serverSpans)} }

func (t *tracer) record(id uint64, f func(s *serverSpans)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.reqs[id]
	if s == nil {
		s = &serverSpans{}
		t.reqs[id] = s
	}
	f(s)
}

func (t *tracer) spans(id uint64) (serverSpans, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.reqs[id]
	if !ok {
		return serverSpans{}, false
	}
	return *s, true
}

// wrap times the service's handler and hands the request ID to the
// segment backend through the request context.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(requestHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
		end := time.Now()
		t.record(id, func(s *serverSpans) { s.handlerStart, s.handlerEnd, s.handled = start, end, true })
	})
}

// segment is the Config.Segment backend of the traced run: the default
// backend, timed, with its phase statistics kept per request.
func (t *tracer) segment(ctx context.Context, im *imgio.Image, p sslic.Params) (*sslic.Result, error) {
	start := time.Now()
	res, err := sslic.SegmentContext(ctx, im, p)
	end := time.Now()
	if id, ok := ctx.Value(requestIDKey{}).(uint64); ok && err == nil {
		t.record(id, func(s *serverSpans) {
			s.segStart, s.segEnd, s.stats, s.segmented = start, end, res.Stats, true
		})
	}
	return res, err
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name string
	ms   []float64
}

// layers reduces the traced window to the per-layer metrics and prints
// the self-time table. A layer's self time is its span minus the child
// spans inside it; what no hook covers is printed as unattributed.
func (t *tracer) layers(xs []*exchange) map[string]metric {
	var (
		client, transport, handler, unattributed []float64
		decode, queue, segment, unphased         []float64
		colorconv, initT, assign, update, other  []float64
		wireDecode, churn                        []float64
		assignNs, calcs                          float64
		warm                                     int
	)
	for _, x := range xs {
		s, ok := t.spans(x.id)
		if !x.success() || !ok || !s.handled || !s.segmented {
			continue
		}
		st := s.stats
		c := ms(x.done.Sub(x.sent))
		hd := ms(s.handlerEnd.Sub(s.handlerStart))
		sg := ms(s.segEnd.Sub(s.segStart))
		dec := float64(x.decodeNs) / 1e6
		q := float64(x.queueNs) / 1e6
		client = append(client, c)
		transport = append(transport, c-hd)
		handler = append(handler, hd)
		unattributed = append(unattributed, hd-dec-q-sg)
		decode = append(decode, dec)
		queue = append(queue, q)
		segment = append(segment, sg)
		unphased = append(unphased, sg-ms(st.Total()))
		colorconv = append(colorconv, ms(st.ColorConvTime))
		initT = append(initT, ms(st.InitTime))
		assign = append(assign, ms(st.AssignTime))
		update = append(update, ms(st.UpdateTime))
		other = append(other, ms(st.OtherTime))
		wireDecode = append(wireDecode, ms(x.decodeDur))
		if x.churn >= 0 {
			churn = append(churn, x.churn)
		}
		assignNs += float64(st.AssignTime)
		calcs += float64(st.DistanceCalcs)
		if x.warm {
			warm++
		}
	}
	total := mean(client)
	fmt.Printf("per-layer self time over %d traced frames (mean ms/frame, share of client latency %.3fms):\n", len(client), total)
	for _, r := range []layerRow{
		{"client: loopback HTTP + body read", transport},
		{"server: unattributed (admit, tenant, encode, observe)", unattributed},
		{"imgio: request decode", decode},
		{"pipeline: queue wait", queue},
		{"sslic: colour conversion", colorconv},
		{"sslic: init", initT},
		{"sslic: assign", assign},
		{"sslic: center update", update},
		{"sslic: other (connectivity, quality scan)", other},
		{"sslic: unphased (backend minus phase clocks)", unphased},
	} {
		v := mean(r.ms)
		fmt.Printf("  %-52s %10.3f %6.1f%%\n", r.name, v, 100*v/total)
	}
	fmt.Printf("  %-52s %10.3f\n", "client: wire.Decode (after the window)", mean(wireDecode))
	if h := mean(handler); h > 0 {
		fmt.Printf("serving overhead (handler minus segment backend) = %.1f%% of handler time; assign = %.1f%% of client latency\n",
			100*(h-mean(segment))/h, 100*mean(assign)/total)
	}
	nsPerCalc := 0.0
	if calcs > 0 {
		nsPerCalc = assignNs / calcs
	}
	return map[string]metric{
		"sslic.assign_ms":          {mean(assign), "ms"},
		"sslic.assign_ns_per_calc": {nsPerCalc, "ns"},
		"sslic.colorconv_ms":       {mean(colorconv), "ms"},
		"sslic.init_ms":            {mean(initT), "ms"},
		"sslic.update_ms":          {mean(update), "ms"},
		"sslic.other_ms":           {mean(other), "ms"},
		"sslic.segment_ms":         {mean(segment), "ms"},
		"server.handler_ms":        {mean(handler), "ms"},
		"server.unattributed_ms":   {mean(unattributed), "ms"},
		"imgio.decode_ms":          {mean(decode), "ms"},
		"pipeline.queue_wait_ms":   {mean(queue), "ms"},
		"pipeline.warm_ratio":      {ratio(warm, len(client)), "ratio"},
		"wire.decode_ms":           {mean(wireDecode), "ms"},
		"quality.churn":            {mean(churn), "ratio"},
	}
}

// writeChrome writes the traced window's spans as one Chrome trace:
// client request → handler → segment backend → client decode, each
// carrying the request ID.
func (t *tracer) writeChrome(path string, xs []*exchange) error {
	if len(xs) == 0 {
		return nil
	}
	start, end := xs[0].sent, xs[0].done
	var events []telemetry.TraceEvent
	for _, x := range xs {
		if x.sent.Before(start) {
			start = x.sent
		}
		if x.done.After(end) {
			end = x.done
		}
		req := map[string]any{"request": x.id, "input": x.input, "status": x.status}
		if x.stream != "" {
			req["stream"] = x.stream
		}
		events = append(events, telemetry.TraceEvent{
			Name: "request", Track: "client", Start: x.sent, Dur: x.done.Sub(x.sent), Args: req,
		})
		if x.decodeDur > 0 {
			// The client decodes after the timed window; the span is
			// drawn where the decode would follow the response.
			events = append(events, telemetry.TraceEvent{
				Name: "wire.Decode", Track: "client", Start: x.done, Dur: x.decodeDur,
				Args: map[string]any{"request": x.id, "parent": "request", "bytes": x.bytes,
					"timed_after_window": true},
			})
		}
		s, ok := t.spans(x.id)
		if !ok {
			continue
		}
		if s.handled {
			events = append(events, telemetry.TraceEvent{
				Name: "handler", Track: "server", Start: s.handlerStart, Dur: s.handlerEnd.Sub(s.handlerStart),
				Args: map[string]any{"request": x.id, "parent": "request",
					"decode_ns": x.decodeNs, "queue_ns": x.queueNs},
			})
		}
		if s.segmented {
			st := s.stats
			events = append(events, telemetry.TraceEvent{
				Name: "segment", Track: "sslic", Start: s.segStart, Dur: s.segEnd.Sub(s.segStart),
				Args: map[string]any{"request": x.id, "parent": "handler",
					"colorconv_ns": st.ColorConvTime.Nanoseconds(), "init_ns": st.InitTime.Nanoseconds(),
					"assign_ns": st.AssignTime.Nanoseconds(), "update_ns": st.UpdateTime.Nanoseconds(),
					"other_ns": st.OtherTime.Nanoseconds(), "distance_calcs": st.DistanceCalcs,
					"subset_passes": st.SubsetPasses},
			})
		}
	}
	return writeTrace(path, &telemetry.TraceData{ID: "perfbench", Start: start, Dur: end.Sub(start), Status: "ok", Events: events})
}

// writeTrace writes td as Chrome trace_event JSON to path.
func writeTrace(path string, td *telemetry.TraceData) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, td); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
