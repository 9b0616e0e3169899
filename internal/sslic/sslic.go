// Package sslic implements Subsampled SLIC (S-SLIC), the paper's primary
// contribution (§3): at each iteration only a subset of the image pixels
// (or of the superpixel centers) is used to update the cluster state, in
// round-robin order over equal-size subsets — an ordered-subsets /
// stochastic-gradient style acceleration that cuts distance computations
// and memory bandwidth while preserving convergence.
//
// Two dataflow architectures are provided (§4.2):
//
//   - PPA (pixel perspective): each visited pixel evaluates the 9
//     spatially closest initial centers from a precomputed static tiling
//     and claims the nearest; superpixel sigma accumulators are updated
//     on the fly. Reads the image once per pass.
//   - CPA (center perspective): each updated center scans its 2S×2S patch
//     like original SLIC; overlapping patches re-read pixels ~4×.
//
// The package also exposes the operation-count and DRAM-traffic analysis
// behind Table 2 and the preemptive per-cluster early-halt extension the
// paper cites as composable future work (§8).
package sslic

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"sslic/internal/faults"
	"sslic/internal/imgio"
	"sslic/internal/slic"
	"sslic/internal/telemetry"
)

// Arch selects the dataflow architecture of §4.2.
type Arch int

const (
	// PPA is the pixel perspective architecture, the paper's choice.
	PPA Arch = iota
	// CPA is the center perspective architecture baseline.
	CPA
)

// String returns the paper's name for the architecture.
func (a Arch) String() string {
	if a == CPA {
		return "CPA"
	}
	return "PPA"
}

// Scheme selects how pixels (PPA) or centers (CPA) are split into
// subsets — the "different subsampling mechanisms" the paper explores.
type Scheme int

const (
	// Interleaved assigns pixel (x, y) to subset (x+y) mod k: diagonal
	// stripes, a checkerboard for k=2. Spatially uniform, the default.
	Interleaved Scheme = iota
	// Rows assigns by y mod k: horizontal stripe interleave, the most
	// DRAM-friendly streaming pattern.
	Rows
	// Blocks splits the image into k contiguous horizontal bands. The
	// spatially worst choice — included to show why subset design matters
	// for convergence (cf. the OS-EM subset balance requirement).
	Blocks
	// Hashed assigns by a pixel-position hash: an unstructured
	// stochastic-gradient-like subset.
	Hashed
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Rows:
		return "rows"
	case Blocks:
		return "blocks"
	case Hashed:
		return "hashed"
	default:
		return "interleaved"
	}
}

// DatapathKind selects the arithmetic of the PPA hot loop.
type DatapathKind int

const (
	// Float64 is the reference datapath: float64 CIELAB conversion and
	// Equation-5 distances, the oracle the fixed path is tested against.
	Float64 DatapathKind = iota
	// Fixed is the paper's hardware datapath (§4.3, §6.1): 8-bit Lab codes
	// from the internal/lut Color Conversion Unit (gamma LUT + PWL cube
	// root) and integer distance/accumulator arithmetic. Center sums use
	// exact integer accumulators, so tiled runs are bit-identical for
	// every TileWorkers value, not just per worker count.
	Fixed
)

// String names the datapath.
func (d DatapathKind) String() string {
	if d == Fixed {
		return "fixed"
	}
	return "float64"
}

// Params configures an S-SLIC run.
type Params struct {
	// K is the requested superpixel count.
	K int
	// Compactness is m in Equation 5.
	Compactness float64
	// FullIters is the number of full-image-equivalent iterations; the
	// run performs FullIters × Subsets subset passes so every
	// configuration visits each pixel the same number of times.
	FullIters int
	// Threshold stops early when the mean per-center movement in a pass
	// falls below it (0 disables).
	Threshold float64
	// SubsampleRatio is 1/Subsets: 1 disables subsampling, 0.5 and 0.25
	// are the paper's S-SLIC(0.5) and S-SLIC(0.25).
	SubsampleRatio float64
	// Arch selects PPA or CPA.
	Arch Arch
	// Scheme selects the subset construction.
	Scheme Scheme
	// PerturbCenters applies the 3×3 gradient perturbation at init.
	PerturbCenters bool
	// EnforceConnectivity runs the final stray-pixel pass.
	EnforceConnectivity bool
	// MinRegionDivisor sets the connectivity minimum size S²/divisor.
	MinRegionDivisor int
	// Datapath selects the hot-loop arithmetic: Float64 (default) is the
	// reference implementation, Fixed runs the paper's integer LUT
	// datapath (PPA only; see DatapathKind).
	Datapath DatapathKind
	// Quantization optionally models the reduced-precision hardware
	// datapath by quantizing the float64 path's Lab values and distances
	// (the §6.1 bit-width exploration). Mutually exclusive with
	// Datapath == Fixed, which replaces the arithmetic outright.
	Quantization slic.Datapath
	// Preemptive enables the per-cluster early halt of Preemptive SLIC
	// (Neubert & Protzel, ICPR 2014) composed with subsampling: tiles
	// whose 9 candidate centers have all stopped moving are skipped.
	Preemptive bool
	// PreemptThreshold is the per-center movement (pixels, L1) below
	// which a center counts as settled. Zero selects 0.5.
	PreemptThreshold float64
	// InitialCenters seeds the superpixel centers instead of grid
	// initialization — the warm-start path video pipelines use to carry
	// centers across frames. Length must equal the effective K (the
	// center grid size for the image and K). PPA only.
	InitialCenters []slic.Center
	// TileWorkers sets the number of goroutines for the PPA cluster-update
	// pass: 0 or 1 runs serially, n > 1 uses n workers, -1 uses
	// runtime.GOMAXPROCS(0). Tile rows are partitioned into contiguous
	// bands with per-band sigma accumulators merged in fixed band order,
	// so labels are deterministic for a given worker count. On the
	// Float64 datapath center coordinates can differ from the serial path
	// in the last floating-point bits because summation order changes; on
	// the Fixed datapath the integer accumulators are exactly
	// associative, so output is bit-identical for EVERY worker count.
	TileWorkers int
	// LabelBuf optionally supplies a preallocated label map that the run
	// writes its result into instead of allocating a fresh one — the
	// buffer-reuse hook streaming pipelines use to keep the per-frame hot
	// loop allocation-free. It must match the image dimensions (a
	// mismatched buffer is ignored and a new map is allocated); prior
	// contents are overwritten. The returned Result.Labels aliases it.
	LabelBuf *imgio.LabelMap
	// Metrics, when non-nil, records the run into a telemetry registry:
	// per-pass latency and residual, distance-computation counters, and
	// whole-run latency. See NewMetrics. nil disables recording.
	Metrics *Metrics
	// Scratch optionally supplies reusable working memory — Lab planes,
	// gradient map, accumulators, quality-scan counts — so steady-state
	// streams segment without per-frame buffer allocations (the Lab
	// planes alone are 24 bytes/pixel). A Scratch must not be shared by
	// concurrent runs: give each worker its own and reuse it across
	// frames. nil allocates fresh buffers per run (the one-shot path).
	Scratch *Scratch
	// SoftwareCenterUpdate selects the paper's CPU software organization
	// for the center update phase: after every subset pass, a separate
	// full-image accumulation recomputes all centers from the current
	// labels (this is what Table 1 profiles — its cost grows with the
	// subset count, 10.2%→17.9%). The default (false) is the
	// hardware-faithful fused path, where sigma accumulators are updated
	// inside the cluster-update pass and only the averages are computed
	// afterwards.
	SoftwareCenterUpdate bool
}

// DefaultParams mirrors the paper's evaluation setup: m=10, 10 full
// iterations, PPA with interleaved subsets at the given ratio.
func DefaultParams(k int, ratio float64) Params {
	return Params{
		K:                   k,
		Compactness:         10,
		FullIters:           10,
		SubsampleRatio:      ratio,
		Arch:                PPA,
		Scheme:              Interleaved,
		PerturbCenters:      true,
		EnforceConnectivity: true,
		MinRegionDivisor:    4,
	}
}

// Subsets returns the subset count k = round(1/ratio).
func (p Params) Subsets() int {
	if p.SubsampleRatio >= 1 {
		return 1
	}
	return int(math.Round(1 / p.SubsampleRatio))
}

// Validate reports whether the parameters are usable for a w×h image.
func (p Params) Validate(w, h int) error {
	if w <= 0 || h <= 0 {
		return fmt.Errorf("sslic: invalid image size %dx%d", w, h)
	}
	if p.K < 1 || p.K > w*h {
		return fmt.Errorf("sslic: K = %d out of range [1, %d]", p.K, w*h)
	}
	if p.Compactness <= 0 {
		return fmt.Errorf("sslic: compactness %g, want > 0", p.Compactness)
	}
	if p.FullIters < 1 {
		return fmt.Errorf("sslic: FullIters = %d, want >= 1", p.FullIters)
	}
	if p.SubsampleRatio <= 0 || p.SubsampleRatio > 1 {
		return fmt.Errorf("sslic: subsample ratio %g out of (0, 1]", p.SubsampleRatio)
	}
	if p.Datapath != Float64 && p.Datapath != Fixed {
		return fmt.Errorf("sslic: unknown datapath %d", p.Datapath)
	}
	if p.Datapath == Fixed {
		if p.Arch == CPA {
			return fmt.Errorf("sslic: the fixed datapath requires the PPA architecture")
		}
		if p.Quantization.Enabled {
			return fmt.Errorf("sslic: the fixed datapath replaces the arithmetic; Quantization does not apply")
		}
		if p.SoftwareCenterUpdate {
			return fmt.Errorf("sslic: the fixed datapath uses the fused hardware center update; SoftwareCenterUpdate does not apply")
		}
	}
	if p.Arch == CPA && p.InitialCenters != nil {
		return fmt.Errorf("sslic: the CPA architecture has no warm start; InitialCenters does not apply")
	}
	return nil
}

// Stats extends the SLIC phase accounting with subsampling counters.
type Stats struct {
	slic.Stats
	SubsetPasses int
	// SkippedTiles counts tiles the preemptive extension skipped.
	SkippedTiles int64
	// SavedDistanceCalcs counts Equation 5 evaluations avoided by
	// preemption.
	SavedDistanceCalcs int64

	// Quality proxies, filled by a deterministic O(N) scan over the
	// final labels (shared by every architecture and datapath). They
	// are the live stand-ins for the paper's offline quality metrics:
	// EmptyClusters and ClusterSizeCV track under-segmentation
	// collapse, BoundaryPixels tracks boundary density (the BR proxy).
	EmptyClusters int
	// ClusterSizeCV is the coefficient of variation (stddev/mean) of
	// per-cluster pixel counts across the effective K clusters.
	ClusterSizeCV float64
	// BoundaryPixels counts pixels with at least one 4-neighbor of a
	// different label.
	BoundaryPixels int
}

// FinalResidual returns the last pass's mean per-center movement, the
// residual the convergence proxies read (0 before any pass runs).
func (st Stats) FinalResidual() float64 {
	if n := len(st.MoveHistory); n > 0 {
		return st.MoveHistory[n-1]
	}
	return 0
}

// ResidualDecay returns the final residual over the first — the
// convergence rate across the run's subset passes. 1 means no
// improvement; values near 0 mean the centers settled. Returns 1 when
// fewer than two passes ran or the first residual is 0.
func (st Stats) ResidualDecay() float64 {
	if len(st.MoveHistory) < 2 || st.MoveHistory[0] <= 0 {
		return 1
	}
	return st.FinalResidual() / st.MoveHistory[0]
}

// Result is the output of an S-SLIC run.
type Result struct {
	Labels  *imgio.LabelMap
	Centers []slic.Center
	Tiling  *Tiling
	Stats   Stats
}

// Segment runs S-SLIC per Figure 1b (PPA) or the CPA variant.
func Segment(im *imgio.Image, p Params) (*Result, error) {
	return SegmentContext(context.Background(), im, p)
}

// SegmentContext is Segment with cancellation: the context is checked
// before every subset pass (and once more before the connectivity
// sweep), so a canceled or deadline-expired request returns within one
// subset round rather than running its full iteration budget. The
// partial segmentation state is discarded; the returned error is the
// context's error. This is the deadline-propagation hook the serving
// layer uses to stop paying for requests whose clients have given up.
func SegmentContext(ctx context.Context, im *imgio.Image, p Params) (*Result, error) {
	if err := p.Validate(im.W, im.H); err != nil {
		return nil, err
	}
	if p.Scratch == nil {
		p.Scratch = &Scratch{oneShot: true}
	}
	t0 := time.Now()
	r, err := segment(ctx, im, &p, newEngine(&p))
	if err == nil {
		dur := time.Since(t0)
		p.Metrics.observeRun(dur, r.Stats, r.Stats.Converged)
		// Charge the request's cost ledger: segmentation wall time,
		// compute time (the summed phase times — on the serial path
		// these equal the trace's per-phase event durations), and the
		// label-map buffer when this run allocated one rather than
		// reusing the caller's.
		if c := telemetry.CostFrom(ctx); c != nil {
			c.AddSegment(dur)
			c.AddCPU(r.Stats.Total())
			if p.LabelBuf == nil {
				c.AddAlloc(int64(4 * im.W * im.H))
			}
		}
	}
	return r, err
}

// engine is one datapath as the shared driver sees it: the float64 PPA,
// the integer PPA or the CPA. Each method runs once per phase or per
// pass and hands the whole of it to concrete code, so no interface call
// lands inside a pixel or candidate loop.
type engine interface {
	// convert runs the colour conversion (the ColorConv phase).
	convert(im *imgio.Image)
	// init places the centers, on the grid or from
	// Params.InitialCenters, and returns the initial label map (the Init
	// phase).
	init(im *imgio.Image) (*imgio.LabelMap, error)
	// prepare sizes the per-run pass state (accumulators, preemption
	// flags, the CPA distance buffer) after Init; it counts in no phase.
	prepare()
	// beginPass resets per-round state ahead of a pass. It counts in
	// the pass latency but not in the Assign phase.
	beginPass(subset int)
	// pass assigns the pixels of one subset pass (the Assign phase).
	pass(tr *telemetry.Trace, pass, subset int) (calcs, skipped, saved int64, err error)
	// update applies the center update after a pass (the Update phase)
	// and returns the summed L1 center movement and how many centers it
	// updated.
	update(subset int) (move float64, updated int)
	// finalCenters returns the centers in slic.Center form; it counts
	// in no phase.
	finalCenters() []slic.Center
	// finish completes the labels and returns the tiling. It runs at
	// the start of the connectivity phase.
	finish() *Tiling
	// traceArgs returns the args that mark the engine's colorconv and
	// pass trace events, nil for none.
	traceArgs() map[string]any
}

// newEngine selects the engine for validated parameters.
func newEngine(p *Params) engine {
	k := p.Subsets()
	switch {
	case p.Arch == CPA:
		return &cpa{p: p, k: k}
	case p.Datapath == Fixed:
		return &fixedPPA{ppa: ppa[int64]{p: p, k: k, scr: &p.Scratch.fxPass}}
	default:
		return &floatPPA{ppa: ppa[float64]{p: p, k: k, scr: &p.Scratch.pass}}
	}
}

// segment is the S-SLIC driver of every engine: colour conversion,
// init, FullIters × Subsets subset passes of assignment and center
// update, then connectivity and the quality scan. The engine supplies
// the arithmetic; cancellation, fault points, phase timing, metrics,
// trace events and the Threshold stop live here once.
func segment(ctx context.Context, im *imgio.Image, p *Params, e engine) (*Result, error) {
	var st Stats
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The request trace rides the context: each phase below lands one
	// event on the frame's timeline. A nil trace (the untraced hot path)
	// costs one pointer check per phase.
	tr := telemetry.TraceFrom(ctx)

	t0 := time.Now()
	e.convert(im)
	st.ColorConvTime = time.Since(t0)
	if tr != nil {
		tr.Emit("colorconv", "sslic", t0, st.ColorConvTime, e.traceArgs())
	}

	t0 = time.Now()
	labels, err := e.init(im)
	if err != nil {
		return nil, err
	}
	st.InitTime = time.Since(t0)
	tr.Emit("init", "sslic", t0, st.InitTime, nil)

	k := p.Subsets()
	totalPasses := p.FullIters * k
	e.prepare()
	for pass := 0; pass < totalPasses; pass++ {
		// Checked once per subset pass: a pass touches ~1/k of the image,
		// so cancellation latency is bounded by one subset round. The
		// fault hook rides the same granularity — an injected failure
		// surfaces between passes, exactly where cancellation would.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := faults.Fire(faults.PointSubsetPass); err != nil {
			return nil, fmt.Errorf("sslic: pass %d: %w", pass, err)
		}
		subset := pass % k
		passStart := time.Now()
		e.beginPass(subset)

		t0 = time.Now()
		calcs, skipped, saved, err := e.pass(tr, pass, subset)
		if err != nil {
			return nil, err
		}
		st.DistanceCalcs += calcs
		st.SkippedTiles += skipped
		st.SavedDistanceCalcs += saved
		st.AssignTime += time.Since(t0)

		t0 = time.Now()
		move, updated := e.update(subset)
		st.CenterUpdates += int64(updated)
		st.UpdateTime += time.Since(t0)
		st.SubsetPasses = pass + 1
		st.Iterations = (pass + k) / k
		residual := move / float64(max(1, updated))
		st.MoveHistory = append(st.MoveHistory, residual)
		passDur := time.Since(passStart)
		p.Metrics.observePass(passDur, pass, totalPasses, residual)
		if tr != nil {
			args := map[string]any{
				"pass": pass, "subset": subset, "arch": p.Arch.String(),
				"distance_calcs": calcs, "residual": residual,
				"skipped_tiles": skipped,
			}
			for name, v := range e.traceArgs() {
				args[name] = v
			}
			tr.Emit("pass", "sslic", passStart, passDur, args)
		}

		if p.Threshold > 0 && residual < p.Threshold {
			st.Converged = true
			break
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	centers := e.finalCenters()
	p.Scratch.release()
	t0 = time.Now()
	tiling := e.finish()
	if p.EnforceConnectivity {
		s := slic.GridInterval(im.W, im.H, p.K)
		slic.EnforceConnectivity(labels, int(s*s)/max(1, p.MinRegionDivisor))
		tr.Emit("connectivity", "sslic", t0, time.Since(t0), nil)
	}
	qualityScan(labels, len(centers), p.Scratch, &st)
	st.OtherTime = time.Since(t0)

	return &Result{Labels: labels, Centers: centers, Tiling: tiling, Stats: st}, nil
}

// subsetOf reports the subset index of pixel (x, y) under the scheme.
func subsetOf(scheme Scheme, x, y, w, h, k int) int {
	switch scheme {
	case Rows:
		return y % k
	case Blocks:
		return y * k / h
	case Hashed:
		hsh := uint32(x)*0x9E3779B9 + uint32(y)*0x85EBCA6B
		hsh ^= hsh >> 16
		return int(hsh % uint32(k))
	default: // Interleaved
		return (x + y) % k
	}
}

// rowSpan returns where a pass over subset `subset` of k starts on row y
// of a tile whose first column is x0, its column stride, and whether the
// row holds pixels of the subset at all. The Interleaved and Rows
// schemes admit strided iteration, so a ratio-1/k pass visits (and pays
// for) only ~1/k of the pixels — the bandwidth/compute saving S-SLIC
// exists for. Hashed spans the whole row; the kernels filter its pixels.
func rowSpan(scheme Scheme, x0, y, h, subset, k int) (start, step int, ok bool) {
	if k > 1 {
		switch scheme {
		case Interleaved:
			return x0 + mod(subset-(x0+y), k), k, true
		case Rows:
			return x0, 1, y%k == subset
		case Blocks:
			return x0, 1, y*k/h == subset
		}
	}
	return x0, 1, true
}

// sigma is the accumulator register file of the Cluster Update Unit: the
// six fields (L, a, b, x, y, count) the hardware updates with six adders.
// The Float64 datapath sums Lab values and pixel coordinates as float64;
// the Fixed datapath sums 8-bit codes and integer coordinates as int64,
// whose addition is exactly associative.
type sigma[T float64 | int64] struct {
	l, a, b, x, y T
	n             int64
}

// ppa is the state both PPA engines share: the static tiling, the label
// map, the preemption flags, and the accumulators with their per-band
// scratch. T is the datapath's accumulator arithmetic.
type ppa[T float64 | int64] struct {
	p       *Params
	k       int // subset count
	tiling  *Tiling
	labels  *imgio.LabelMap
	settled []bool
	acc     []sigma[T]
	scr     *passScratch[T]
}

// initTiling builds the static tiling and checks warm-start centers
// against it.
func (s *ppa[T]) initTiling(w, h int) error {
	s.tiling = NewTiling(w, h, s.p.K)
	if s.p.InitialCenters != nil && len(s.p.InitialCenters) != s.tiling.NumTiles() {
		return fmt.Errorf("sslic: %d initial centers, want %d", len(s.p.InitialCenters), s.tiling.NumTiles())
	}
	return nil
}

// initLabels labels every pixel with its own cell center: the static
// initial assignment (the paper initializes the external-memory copy of
// the assignments before the first pass). The loop writes every pixel,
// so a reused buffer needs no separate reset.
func (s *ppa[T]) initLabels(w, h int) *imgio.LabelMap {
	s.labels = labelBufOrNew(s.p.LabelBuf, w, h, false)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			s.labels.Set(x, y, s.tiling.OwnCenter(x, y))
		}
	}
	return s.labels
}

func (s *ppa[T]) prepare() {
	n := s.tiling.NumTiles()
	s.settled = grow(&s.p.Scratch.settled, n)
	clear(s.settled)
	s.acc = grow(&s.scr.acc, n)
}

func (s *ppa[T]) beginPass(int) {}

// preemptThreshold resolves the PreemptThreshold default.
func (p *Params) preemptThreshold() float64 {
	if p.PreemptThreshold == 0 {
		return 0.5
	}
	return p.PreemptThreshold
}

// floatPPA is the PPA on the Float64 datapath, the reference oracle.
type floatPPA struct {
	ppa[float64]
	lab     *slic.LabImage
	centers []slic.Center
	invS2   float64
	quant   func(float64) float64
}

func (e *floatPPA) convert(im *imgio.Image) {
	e.lab = e.p.Scratch.labFor(im, e.p.Quantization)
}

func (e *floatPPA) init(im *imgio.Image) (*imgio.LabelMap, error) {
	if err := e.initTiling(im.W, im.H); err != nil {
		return nil, err
	}
	if e.p.InitialCenters != nil {
		e.centers = append([]slic.Center(nil), e.p.InitialCenters...)
	} else {
		e.centers = e.p.Scratch.initCenters(e.lab, e.p.K, e.p.PerturbCenters)
	}
	if len(e.centers) != e.tiling.NumTiles() {
		return nil, fmt.Errorf("sslic: internal: %d centers vs %d tiles", len(e.centers), e.tiling.NumTiles())
	}
	s := slic.GridInterval(im.W, im.H, e.p.K)
	e.invS2 = e.p.Compactness * e.p.Compactness / (s * s)
	e.quant = e.p.Quantization.DistQuantizer()
	return e.initLabels(im.W, im.H), nil
}

func (e *floatPPA) pass(tr *telemetry.Trace, pass, subset int) (calcs, skipped, saved int64, err error) {
	return runPPAPass(e, &e.ppa, tr, pass, subset)
}

func (e *floatPPA) passRange(acc []sigma[float64], tyFrom, tyTo, subset int) (calcs, skipped, saved int64) {
	return ppaPassRange(e.lab, e.tiling, e.centers, e.labels, acc, tyFrom, tyTo, subset, e.k, e.invS2, e.quant, *e.p, e.settled)
}

func (e *floatPPA) update(int) (float64, int) {
	if !e.p.SoftwareCenterUpdate {
		return applySigma(e.centers, e.acc, e.settled, e.p.preemptThreshold(), e.p.Preemptive), len(e.centers)
	}
	var prev []slic.Center
	if e.p.Preemptive {
		prev = append([]slic.Center(nil), e.centers...)
	}
	move := slic.UpdateCenters(e.lab, e.labels, e.centers)
	for ci := range prev {
		m := math.Abs(e.centers[ci].X-prev[ci].X) + math.Abs(e.centers[ci].Y-prev[ci].Y)
		e.settled[ci] = m < e.p.preemptThreshold()
	}
	return move, len(e.centers)
}

func (e *floatPPA) finalCenters() []slic.Center { return e.centers }

func (e *floatPPA) finish() *Tiling { return e.tiling }

func (e *floatPPA) traceArgs() map[string]any { return nil }

// tileBands splits the NY tile rows into min(workers, NY) contiguous
// bands, resolving the TileWorkers conventions (-1 = all CPUs, <=1 =
// serial). The [i*NY/n, (i+1)*NY/n) split is the fixed decomposition
// both datapaths and the determinism tests rely on.
func tileBands(workers, ny int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > ny {
		workers = ny
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// bandStat is one band's share of a pass, recorded for the per-tile
// trace events and the imbalance gauge.
type bandStat struct {
	calcs, skipped, saved int64
	start                 time.Time
	dur                   time.Duration
	err                   error
}

// passScratch is the per-pass working state of a PPA datapath — the
// accumulators, band stats and one accumulator slice per worker —
// hoisted out of the pass loop so a request allocates it once instead
// of once per subset pass.
type passScratch[T float64 | int64] struct {
	acc   []sigma[T]
	bands []bandStat
	accs  [][]sigma[T]
}

// accsFor returns zeroed per-worker accumulator slices of the given
// center count.
func (s *passScratch[T]) accsFor(workers, centers int) [][]sigma[T] {
	accs := grow(&s.accs, workers)
	for i := range accs {
		accs[i] = grow(&accs[i], centers)
		clear(accs[i])
	}
	return accs
}

// observeBands lands the band timings on the trace (one "tile" span per
// band, emitted in band order from the merging goroutine so traces stay
// single-writer) and on the tile gauges. Serial passes skip the trace
// spans — the "pass" event already covers the single band.
func observeBands(tr *telemetry.Trace, m *Metrics, pass int, bands []bandStat) {
	if tr != nil && len(bands) > 1 {
		for i := range bands {
			tr.Emit("tile", "sslic", bands[i].start, bands[i].dur, map[string]any{
				"pass": pass, "band": i, "distance_calcs": bands[i].calcs,
			})
		}
	}
	var maxDur, sumDur time.Duration
	for i := range bands {
		sumDur += bands[i].dur
		if bands[i].dur > maxDur {
			maxDur = bands[i].dur
		}
	}
	m.observeTiles(len(bands), maxDur, sumDur)
}

// bandError returns the lowest-band failure, so a multi-band pass fails
// deterministically regardless of goroutine scheduling.
func bandError(pass int, bands []bandStat) error {
	for i := range bands {
		if bands[i].err != nil {
			return fmt.Errorf("sslic: pass %d band %d: %w", pass, i, bands[i].err)
		}
	}
	return nil
}

// bandKernel is a PPA engine's per-pixel kernel over tile rows
// [tyFrom, tyTo) for one subset, accumulating into acc.
type bandKernel[T float64 | int64] interface {
	passRange(acc []sigma[T], tyFrom, tyTo, subset int) (calcs, skipped, saved int64)
}

// runPPAPass executes one subset pass of either PPA datapath, serially
// or across worker goroutines per Params.TileWorkers. Parallel runs
// partition the tile rows into bands; each band accumulates into its own
// sigma slice, merged afterwards in band order so labels match the
// serial path exactly (and, on the Fixed datapath, whose integer sums
// associate, the centers too). Every band passes through the sslic.tile
// fault point.
func runPPAPass[T float64 | int64](kern bandKernel[T], s *ppa[T], tr *telemetry.Trace, pass, subset int) (calcs, skipped, saved int64, err error) {
	clear(s.acc)
	ny := s.tiling.NY
	workers := tileBands(s.p.TileWorkers, ny)
	bands := grow(&s.scr.bands, workers)
	clear(bands)
	if workers == 1 {
		runBand(kern, &bands[0], s.acc, 0, ny, subset)
	} else {
		accs := s.scr.accsFor(workers, len(s.acc))
		var wg sync.WaitGroup
		for i := range bands {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runBand(kern, &bands[i], accs[i], i*ny/workers, (i+1)*ny/workers, subset)
			}()
		}
		wg.Wait()
		for i := range accs {
			for ci := range s.acc {
				a, b := &s.acc[ci], &accs[i][ci]
				a.l += b.l
				a.a += b.a
				a.b += b.b
				a.x += b.x
				a.y += b.y
				a.n += b.n
			}
		}
	}
	if err := bandError(pass, bands); err != nil {
		return 0, 0, 0, err
	}
	for i := range bands {
		calcs += bands[i].calcs
		skipped += bands[i].skipped
		saved += bands[i].saved
	}
	observeBands(tr, s.p.Metrics, pass, bands)
	return calcs, skipped, saved, nil
}

// runBand runs the kernel over one band of tile rows into acc, through
// the sslic.tile fault point, and records the band's share in b.
func runBand[T float64 | int64](kern bandKernel[T], b *bandStat, acc []sigma[T], tyFrom, tyTo, subset int) {
	b.start = time.Now()
	if b.err = faults.Fire(faults.PointTile); b.err == nil {
		b.calcs, b.skipped, b.saved = kern.passRange(acc, tyFrom, tyTo, subset)
	}
	b.dur = time.Since(b.start)
}

// ppaPassRange visits every pixel of the given subset within tile rows
// [tyFrom, tyTo), performing the 9-candidate distance + minimum + sigma
// accumulation of the Cluster Update Unit. Returns (distance calcs,
// skipped tiles, saved calcs).
func ppaPassRange(lab *slic.LabImage, tiling *Tiling, centers []slic.Center, labels *imgio.LabelMap,
	acc []sigma[float64], tyFrom, tyTo, subset, k int, invS2 float64, quant func(float64) float64, p Params, settled []bool) (calcs, skippedTiles, saved int64) {

	w, h := lab.W, lab.H
	for ty := tyFrom; ty < tyTo; ty++ {
		y0 := ty * h / tiling.NY
		y1 := (ty + 1) * h / tiling.NY
		for tx := 0; tx < tiling.NX; tx++ {
			tileIdx := ty*tiling.NX + tx
			cand := tiling.Candidates[tileIdx]

			if p.Preemptive && allSettled(cand, settled) {
				skippedTiles++
				// Estimate saved work: subset pixels in tile × candidates.
				x0 := tx * w / tiling.NX
				x1 := (tx + 1) * w / tiling.NX
				saved += int64((x1 - x0) * (y1 - y0) / k * len(cand))
				continue
			}

			x0 := tx * w / tiling.NX
			x1 := (tx + 1) * w / tiling.NX
			for y := y0; y < y1; y++ {
				startX, stepX, ok := rowSpan(p.Scheme, x0, y, h, subset, k)
				if !ok {
					continue
				}
				row := y * w
				for x := startX; x < x1; x += stepX {
					if k > 1 && p.Scheme == Hashed && subsetOf(p.Scheme, x, y, w, h, k) != subset {
						continue
					}
					i := row + x
					l, a, b := lab.L[i], lab.A[i], lab.B[i]
					best := int32(-1)
					bestD := math.Inf(1)
					for _, ci := range cand {
						d := slic.Distance5(l, a, b, float64(x), float64(y), &centers[ci], invS2)
						if quant != nil {
							d = quant(d)
						}
						calcs++
						if d < bestD {
							bestD = d
							best = ci
						}
					}
					labels.Labels[i] = best
					if !p.SoftwareCenterUpdate {
						sg := &acc[best]
						sg.l += l
						sg.a += a
						sg.b += b
						sg.x += float64(x)
						sg.y += float64(y)
						sg.n++
					}
				}
			}
		}
	}
	return calcs, skippedTiles, saved
}

// applySigma is the Center Update Unit: each superpixel's new 5-D center
// is the average of its sigma accumulator. It returns the summed L1
// center movement in the (x, y) plane and updates the settled flags when
// preemption is active.
func applySigma(centers []slic.Center, acc []sigma[float64], settled []bool, preemptThresh float64, preemptive bool) float64 {
	var move float64
	for ci := range centers {
		sg := acc[ci]
		if sg.n == 0 {
			continue
		}
		n := float64(sg.n)
		c := &centers[ci]
		nx, ny := sg.x/n, sg.y/n
		m := math.Abs(nx-c.X) + math.Abs(ny-c.Y)
		move += m
		c.L, c.A, c.B, c.X, c.Y = sg.l/n, sg.a/n, sg.b/n, nx, ny
		if preemptive {
			settled[ci] = m < preemptThresh
		}
	}
	return move
}

func allSettled(cand []int32, settled []bool) bool {
	for _, ci := range cand {
		if !settled[ci] {
			return false
		}
	}
	return true
}

// labelBufOrNew returns buf when it matches w×h, else a fresh label map.
// CPA assigns pixels through a running minimum rather than visiting every
// pixel each pass, so a reused buffer must be reset to Unassigned first.
func labelBufOrNew(buf *imgio.LabelMap, w, h int, reset bool) *imgio.LabelMap {
	if buf == nil || buf.W != w || buf.H != h {
		return imgio.NewLabelMap(w, h)
	}
	if reset {
		for i := range buf.Labels {
			buf.Labels[i] = imgio.Unassigned
		}
	}
	return buf
}

// mod returns a mod k in [0, k), also for negative a.
func mod(a, k int) int {
	m := a % k
	if m < 0 {
		m += k
	}
	return m
}
