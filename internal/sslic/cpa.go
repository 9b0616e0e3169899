package sslic

import (
	"math"

	"sslic/internal/imgio"
	"sslic/internal/slic"
	"sslic/internal/telemetry"
)

// cpa is the center perspective architecture of §4.2: the superpixel
// centers are split into equal subsets traversed round-robin; each pass
// updates one subset of centers by scanning the 2S×2S patch around each
// of them, exactly like original SLIC restricted to that subset.
// Persistent minimum-distance and label buffers carry state between
// passes (the two image-sized memory buffers of §2).
type cpa struct {
	p        *Params
	k        int // subset count
	lab      *slic.LabImage
	centers  []slic.Center
	labels   *imgio.LabelMap
	dist     []float64
	s, invS2 float64
	quant    func(float64) float64
}

func (e *cpa) convert(im *imgio.Image) {
	e.lab = e.p.Scratch.labFor(im, e.p.Quantization)
}

func (e *cpa) init(im *imgio.Image) (*imgio.LabelMap, error) {
	e.centers = e.p.Scratch.initCenters(e.lab, e.p.K, e.p.PerturbCenters)
	e.labels = labelBufOrNew(e.p.LabelBuf, im.W, im.H, true)
	e.s = slic.GridInterval(im.W, im.H, e.p.K)
	e.invS2 = e.p.Compactness * e.p.Compactness / (e.s * e.s)
	e.quant = e.p.Quantization.DistQuantizer()
	return e.labels, nil
}

func (e *cpa) prepare() { e.dist = grow(&e.p.Scratch.dist, e.lab.Pixels()) }

// beginPass handles distance decay: because centers move between
// passes, retained minima go slightly stale; original SLIC resets the
// buffer every iteration. Reset at the start of each full round so
// every pixel is re-contested once per full iteration.
func (e *cpa) beginPass(subset int) {
	if subset == 0 {
		for i := range e.dist {
			e.dist[i] = math.Inf(1)
		}
	}
}

// pass scans the patch of every center in the subset, claiming each
// pixel for the nearest center seen so far.
func (e *cpa) pass(_ *telemetry.Trace, _, subset int) (calcs, skipped, saved int64, err error) {
	lab, labels, dist, invS2, quant := e.lab, e.labels, e.dist, e.invS2, e.quant
	w, h, s := lab.W, lab.H, e.s
	for ci := range e.centers {
		if ci%e.k != subset {
			continue
		}
		c := &e.centers[ci]
		x0 := max(0, int(c.X-s))
		x1 := min(w-1, int(c.X+s))
		y0 := max(0, int(c.Y-s))
		y1 := min(h-1, int(c.Y+s))
		for y := y0; y <= y1; y++ {
			row := y * w
			for x := x0; x <= x1; x++ {
				i := row + x
				d := slic.Distance5(lab.L[i], lab.A[i], lab.B[i], float64(x), float64(y), c, invS2)
				if quant != nil {
					d = quant(d)
				}
				calcs++
				if d < dist[i] {
					dist[i] = d
					labels.Labels[i] = int32(ci)
				}
			}
		}
	}
	return calcs, 0, 0, nil
}

// update recomputes the subset's centers from their current members
// inside their (enlarged) windows.
func (e *cpa) update(subset int) (float64, int) {
	return updateCPASubset(e.lab, e.labels, e.centers, subset, e.k, e.s), len(e.centers) / e.k
}

func (e *cpa) finalCenters() []slic.Center { return e.centers }

// finish gives pixels never claimed (possible off-grid corners) the
// nearest center by position.
func (e *cpa) finish() *Tiling {
	tiling := NewTiling(e.labels.W, e.labels.H, e.p.K)
	for y := 0; y < e.labels.H; y++ {
		for x := 0; x < e.labels.W; x++ {
			if e.labels.At(x, y) < 0 {
				e.labels.Set(x, y, tiling.OwnCenter(x, y))
			}
		}
	}
	return tiling
}

func (e *cpa) traceArgs() map[string]any { return nil }

// updateCPASubset recomputes the centers of one subset as the mean of the
// pixels currently labeled to them within a 2S-radius window (members
// further out are vanishingly rare for converging SLIC). Returns the
// summed L1 movement of the updated centers.
func updateCPASubset(lab *slic.LabImage, labels *imgio.LabelMap, centers []slic.Center, subset, k int, s float64) float64 {
	w, h := lab.W, lab.H
	var move float64
	for ci := range centers {
		if ci%k != subset {
			continue
		}
		c := &centers[ci]
		x0 := max(0, int(c.X-2*s))
		x1 := min(w-1, int(c.X+2*s))
		y0 := max(0, int(c.Y-2*s))
		y1 := min(h-1, int(c.Y+2*s))
		var sg sigma[float64]
		for y := y0; y <= y1; y++ {
			row := y * w
			for x := x0; x <= x1; x++ {
				i := row + x
				if labels.Labels[i] != int32(ci) {
					continue
				}
				sg.l += lab.L[i]
				sg.a += lab.A[i]
				sg.b += lab.B[i]
				sg.x += float64(x)
				sg.y += float64(y)
				sg.n++
			}
		}
		if sg.n == 0 {
			continue
		}
		n := float64(sg.n)
		nx, ny := sg.x/n, sg.y/n
		move += math.Abs(nx-c.X) + math.Abs(ny-c.Y)
		c.L, c.A, c.B, c.X, c.Y = sg.l/n, sg.a/n, sg.b/n, nx, ny
	}
	return move
}
