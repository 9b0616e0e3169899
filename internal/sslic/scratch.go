package sslic

import (
	"math"

	"sslic/internal/imgio"
	"sslic/internal/slic"
)

// Scratch is the reusable working memory of a Segment run: the Lab
// planes (~24 bytes/pixel, the largest per-frame buffer the CPU
// pipeline otherwise reallocates every frame), the gradient map, the
// preemption and accumulator slices, and the quality-scan counts. Give
// each worker its own Scratch and set Params.Scratch to it across
// frames; a Scratch must never be shared by concurrent runs. Buffers
// grow to the largest frame seen and are fully overwritten each run, so
// one Scratch serves streams of changing geometry. The zero value is
// ready to use.
type Scratch struct {
	lab  slic.LabImage
	grad []float64

	settled []bool
	dist    []float64 // CPA persistent minimum-distance buffer
	counts  []int32   // quality-scan per-cluster pixel counts

	// Fixed-datapath state: the int32 Lab code planes, the int64
	// code-space gradient, and the integer register file.
	fxL, fxA, fxB []int32
	fxGrad        []int64
	fxCenters     []fxCenter

	pass   passScratch[float64]
	fxPass passScratch[int64]

	// oneShot marks the Scratch a run without Params.Scratch gets; it
	// dies with that run (see release).
	oneShot bool
}

// NewScratch returns an empty Scratch; buffers are grown on first use.
func NewScratch() *Scratch { return &Scratch{} }

// grow returns (*buf)[:n], reallocating *buf when its capacity is short.
// The contents are unspecified: every caller overwrites or clears them.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// release empties a one-shot Scratch once the passes are done, so the
// connectivity phase does not hold the Lab planes and accumulators live.
// A reused Scratch keeps its buffers for the next frame.
func (s *Scratch) release() {
	if s.oneShot {
		*s = Scratch{}
	}
}

// labFor returns the Lab conversion of im in the scratch planes, with
// the optional reduced-precision quantization applied.
func (s *Scratch) labFor(im *imgio.Image, q slic.Datapath) *slic.LabImage {
	slic.ToLabInto(&s.lab, im)
	q.QuantizeLab(&s.lab)
	return &s.lab
}

// initCenters runs grid initialization with the gradient buffer in the
// scratch. The centers slice is always freshly allocated:
// Result.Centers escapes to the caller (warm-start states hold it
// across frames), so it must not alias reused memory.
func (s *Scratch) initCenters(lab *slic.LabImage, k int, perturb bool) []slic.Center {
	centers, grad := slic.InitCentersInto(lab, k, perturb, nil, s.grad)
	s.grad = grad
	return centers
}

// qualityScan fills the Stats quality proxies from the final labels in
// one deterministic O(N) pass: per-cluster pixel counts (empty-cluster
// count and size coefficient of variation) and the 4-neighbor boundary
// pixel count. Labels are identical across worker counts on both
// datapaths, so every derived value is too — the property the live
// quality proxies inherit and the determinism tests pin. The counts
// buffer comes from the scratch, keeping the steady-state request path
// allocation-free.
func qualityScan(labels *imgio.LabelMap, k int, scr *Scratch, st *Stats) {
	counts := grow(&scr.counts, k)
	clear(counts)
	w, h := labels.W, labels.H
	lb := labels.Labels
	boundary := 0
	for y := 0; y < h; y++ {
		row := y * w
		for x := 0; x < w; x++ {
			i := row + x
			v := lb[i]
			if v >= 0 && int(v) < len(counts) {
				counts[v]++
			}
			if (x > 0 && lb[i-1] != v) || (x < w-1 && lb[i+1] != v) ||
				(y > 0 && lb[i-w] != v) || (y < h-1 && lb[i+w] != v) {
				boundary++
			}
		}
	}
	empty := 0
	var sum, sum2 float64
	for _, c := range counts {
		if c == 0 {
			empty++
		}
		f := float64(c)
		sum += f
		sum2 += f * f
	}
	st.EmptyClusters = empty
	st.BoundaryPixels = boundary
	if n := float64(len(counts)); n > 0 && sum > 0 {
		mean := sum / n
		variance := sum2/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		st.ClusterSizeCV = math.Sqrt(variance) / mean
	}
}
