package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"sslic/internal/dataset"
	"sslic/internal/imgio"
	"sslic/internal/metrics"
	"sslic/internal/server"
	"sslic/internal/sslic"
	"sslic/internal/video"
	"sslic/internal/wire"
)

// maxPixels bounds what a response header may claim when the client
// decodes it; it matches the service's default frame budget.
const maxPixels = 4 << 20

// still is one cold input frame with everything its responses are
// checked against, all computed before the clock starts. The reference
// label map and the ground truth are reduced to a digest, the counts and
// the scores before the window: kept whole they would add about 16 MB a
// 1080p frame to the live heap, which raises the GC's heap goal and so
// delays the service's resident memory reaching its steady-state peak.
type still struct {
	body      []byte      // PPM request body
	refEnc    []byte      // the reference label map in the workload's wire format
	refDigest [32]byte    // SHA-256 of the reference labels
	refStats  sslic.Stats // the reference run's counts
	br, use   float64     // the reference's scores against the ground truth

	decoded   bool          // refEnc decoded and checked after the window
	decodeDur time.Duration // how long that wire.Decode took
	estPJ     float64       // first X-Cost-Est-Pj seen; every later one must equal it
	estKnown  bool
}

// stillWorkload is a closed loop of cold frames with no stream ID and no
// API key, cycling through a fixed set of inputs. Every response must be
// byte-identical to the library's output on the same frame, encoded in
// the workload's wire format.
type stillWorkload struct {
	cfg      server.Config
	nconns   int
	repeats  int
	pct      float64
	deadline time.Duration
	query    string
	format   wire.Format
	params   sslic.Params
	inputs   []*still
	order    []int // send order over inputs, drawn from the seed
}

// prepare encodes each frame, computes its reference label map with the
// parameters the server maps the workload's query to, and scores the
// reference against the ground truth. Every passing response is
// byte-identical to the reference encoding, so the reference's scores
// are the response's.
func (w *stillWorkload) prepare(seed int64, frames []*imgio.Image, gts []*imgio.LabelMap) error {
	w.order = rand.New(rand.NewSource(seed)).Perm(len(frames))
	for i, im := range frames {
		var body bytes.Buffer
		if err := imgio.EncodePPM(&body, im); err != nil {
			return err
		}
		ref, err := sslic.SegmentContext(context.Background(), im, w.params)
		if err != nil {
			return fmt.Errorf("reference for input %d: %w", i, err)
		}
		var enc bytes.Buffer
		if err := wire.Encode(&enc, w.format, ref.Labels, nil); err != nil {
			return err
		}
		in := &still{body: body.Bytes(), refEnc: enc.Bytes(), refDigest: labelDigest(ref.Labels), refStats: ref.Stats}
		if in.br, err = metrics.BoundaryRecall(ref.Labels, gts[i], 2); err != nil {
			return err
		}
		if in.use, err = metrics.UndersegmentationError(ref.Labels, gts[i]); err != nil {
			return err
		}
		w.inputs = append(w.inputs, in)
	}
	return nil
}

// labelDigest is the SHA-256 of a label map's size and labels.
func labelDigest(lm *imgio.LabelMap) [32]byte {
	b := make([]byte, 8+4*len(lm.Labels))
	binary.LittleEndian.PutUint32(b, uint32(lm.W))
	binary.LittleEndian.PutUint32(b[4:], uint32(lm.H))
	for i, v := range lm.Labels {
		binary.LittleEndian.PutUint32(b[8+4*i:], uint32(v))
	}
	return sha256.Sum256(b)
}

func (w *stillWorkload) config() server.Config { return w.cfg }
func (w *stillWorkload) conns() int            { return w.nconns }
func (w *stillWorkload) setupRepeats() int     { return w.repeats }
func (w *stillWorkload) tailPct() float64      { return w.pct }

func (w *stillWorkload) warmup() []request {
	reqs := make([]request, w.nconns)
	for i := range reqs {
		reqs[i] = request{body: w.inputs[w.order[i%len(w.order)]].body, query: w.query}
	}
	return reqs
}

// drive keeps one check in the window: each body must equal the
// reference encoding byte for byte. A body that does not is kept so
// that finish can say how it differs.
func (w *stillWorkload) drive(svc *service, window time.Duration) []*exchange {
	var n atomic.Uint64
	next := func() (int, request, time.Duration) {
		i := w.order[int(n.Add(1)-1)%len(w.order)]
		return i, request{body: w.inputs[i].body, query: w.query}, w.deadline
	}
	check := func(x *exchange, buf *bytes.Buffer) {
		if !bytes.Equal(buf.Bytes(), w.inputs[x.input].refEnc) {
			x.fail("response differs from the reference encoding")
			x.body = append([]byte(nil), buf.Bytes()...)
		}
	}
	return closedLoop(svc, w.nconns, window, next, check)
}

// decodeReference decodes the reference encoding, which every passing
// body equals byte for byte, and requires it to give back the reference
// label map. The decode is timed for wire.decode_ms.
func (in *still) decodeReference() error {
	start := time.Now()
	lm, err := wire.Decode(bytes.NewReader(in.refEnc), maxPixels, nil)
	in.decodeDur = time.Since(start)
	if err != nil {
		return fmt.Errorf("wire.Decode: %w", err)
	}
	if labelDigest(lm) != in.refDigest {
		return fmt.Errorf("decoded label map differs from the in-process reference")
	}
	in.decoded = true
	return nil
}

// diagnose says how a body that is not the reference encoding differs.
func (in *still) diagnose(body []byte) string {
	lm, err := wire.Decode(bytes.NewReader(body), maxPixels, nil)
	switch {
	case err != nil:
		return "wire.Decode: " + err.Error()
	case labelDigest(lm) != in.refDigest:
		return "label map differs from the in-process reference"
	}
	return fmt.Sprintf("labels match the reference but the encoding does not (%d bytes, reference %d)", len(body), len(in.refEnc))
}

func (w *stillWorkload) finish(xs []*exchange, tr *tracer) (br, use float64, err error) {
	var brs, uses []float64
	for _, x := range xs {
		in := w.inputs[x.input]
		if x.body != nil {
			x.why = in.diagnose(x.body)
			x.body = nil
		}
		if !x.ok {
			continue
		}
		if !in.decoded {
			if err := in.decodeReference(); err != nil {
				x.fail(err.Error())
				continue
			}
		}
		x.decodeDur = in.decodeDur
		// The exact counts must repeat: every response to one input
		// reports the same energy estimate, and the backend the same
		// distance calcs and subset passes as the reference run.
		if !in.estKnown {
			in.estPJ, in.estKnown = x.estPJ, true
		} else if x.estPJ != in.estPJ {
			x.fail(fmt.Sprintf("count drift: X-Cost-Est-Pj %.0f, earlier %.0f", x.estPJ, in.estPJ))
			continue
		}
		if tr != nil {
			s, ok := tr.spans(x.id)
			if !ok || !s.segmented {
				x.fail("traced backend did not see the request")
				continue
			}
			if s.stats.DistanceCalcs != in.refStats.DistanceCalcs || s.stats.SubsetPasses != in.refStats.SubsetPasses {
				x.fail(fmt.Sprintf("count drift: %d calcs / %d passes, reference %d / %d",
					s.stats.DistanceCalcs, s.stats.SubsetPasses, in.refStats.DistanceCalcs, in.refStats.SubsetPasses))
				continue
			}
		}
		brs = append(brs, in.br)
		uses = append(uses, in.use)
	}
	return mean(brs), mean(uses), nil
}

// exact reports the per-frame exact counts averaged over the input set
// (not over the frames served, whose mix depends on timing), so they
// repeat exactly for a seed.
func (w *stillWorkload) exact(xs []*exchange, tr *tracer) exactCounts {
	var c exactCounts
	var est []float64
	for _, in := range w.inputs {
		c.calcs += float64(in.refStats.DistanceCalcs)
		c.passes += float64(in.refStats.SubsetPasses)
		c.bytes += float64(len(in.refEnc))
		if in.estKnown {
			est = append(est, in.estPJ/1e9)
		}
	}
	n := float64(len(w.inputs))
	c.calcs /= n
	c.passes /= n
	c.bytes /= n
	c.mJ = mean(est)
	return c
}

// corpusSeed seeds the benchmark's fixed scene corpus. The corpus is
// fixed, like the BSDS test set the paper evaluates on, because quality
// varies strongly between scenes: over 24 generated 481×321 scenes the
// per-scene undersegmentation error has a coefficient of variation of
// about 0.5, so scenes drawn from the run seed would make the quality
// metrics measure the seed rather than the program. The run seed varies
// the traffic instead: send order, frame offsets, session schedule and
// the assignment of cameras and tenants to sessions.
const corpusSeed = 1

// runHDFixed is the paper's 1080p claim: cold 1920×1080 frames at
// K=5000 on the fixed-point LUT datapath with two row-band workers, one
// closed-loop client, run-length wire format.
func runHDFixed(o options) (*result, error) {
	params := sslic.DefaultParams(5000, 0.5)
	params.Datapath = sslic.Fixed
	params.TileWorkers = 2
	w := &stillWorkload{
		nconns:   1,
		repeats:  3,
		pct:      50,
		deadline: 3 * time.Second,
		query:    "k=5000&ratio=0.5&iters=10&compactness=10&datapath=fixed&tile_workers=2&format=slbl-rle",
		format:   wire.RLE,
		params:   params,
	}
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H = 1920, 1080
	cam, err := video.NewStream(cfg, corpusSeed, video.Pan, 37)
	if err != nil {
		return nil, err
	}
	// The seed picks which three frames of the panning camera are sent.
	var frames []*imgio.Image
	var gts []*imgio.LabelMap
	for _, t := range rand.New(rand.NewSource(o.seed)).Perm(64)[:3] {
		im, gt, err := cam.Frame(t)
		if err != nil {
			return nil, err
		}
		frames = append(frames, im)
		gts = append(gts, gt)
	}
	if err := w.prepare(o.seed, frames, gts); err != nil {
		return nil, err
	}
	return runInProcess(o, w)
}
