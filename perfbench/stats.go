package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail reports the latency tail at a workload's fixed percentile and
// states how many samples lie beyond it. The percentile is fixed per
// workload, not chosen per run, so that a run with a few more samples
// than another does not jump to a different percentile; it is picked so
// that a normal run leaves at least ten samples beyond it, and the
// output says so when one does not.
func tail(xs []float64, pct float64) float64 {
	v := quantile(xs, pct/100)
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	note := ""
	if beyond < 10 {
		note = " (fewer than 10 samples beyond it: treat as indicative)"
	}
	fmt.Printf("latency tail: p%g over %d samples, %d beyond it%s\n", pct, len(xs), beyond, note)
	return v
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler records the peak resident set size of this process while
// it runs, above the RSS at its start. The benchmark frees its
// input-generation garbage back to the OS before starting it, so the
// starting RSS is the runtime plus the inputs the benchmark keeps, and
// what the sampler reports is what set-up and serving add to that.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	base int64
	peak int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	s.base = s.peak
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	if rss := pages * int64(os.Getpagesize()); rss > s.peak {
		s.peak = rss
	}
	s.mu.Unlock()
}

// Stop ends sampling and returns the peak RSS above the starting RSS,
// in MB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak-s.base) / (1 << 20)
}

// runtimeSnap is a reading of the Go runtime's cumulative counters.
type runtimeSnap struct {
	allocObjects, allocBytes float64
	gcCPU, totalCPU          float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSnap{allocObjects: v(0), allocBytes: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// liveHeapMB forces a collection and returns the heap its mark phase
// found live, in MB. Unlike RSS it does not depend on when the last
// collection happened to run.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
