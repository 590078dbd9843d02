package geostat

import (
	"context"
	"fmt"

	"geostat/internal/dataset"
	"geostat/internal/kde"
)

// KDVMethod selects the KDV algorithm (§2.2's acceleration families).
type KDVMethod int

const (
	// KDVAuto picks the fastest exact method for the kernel: sweep line for
	// polynomial kernels, grid cutoff for other finite-support kernels,
	// naive otherwise.
	KDVAuto KDVMethod = iota
	// KDVNaive is the exact O(XYn) baseline.
	KDVNaive
	// KDVGridCutoff is exact for finite-support kernels via a bucket index.
	KDVGridCutoff
	// KDVSweepLine is the exact O(Y(X+n)) computational-sharing algorithm
	// (SLAM family) for kernels polynomial in squared distance.
	KDVSweepLine
	// KDVBoundApprox is the (1±ε) function-approximation algorithm
	// (QUAD/KARL family); works for every kernel, including Gaussian.
	KDVBoundApprox
	// KDVSampled is the Hoeffding-sampling approximation.
	KDVSampled
)

// String returns the method name.
func (m KDVMethod) String() string {
	switch m {
	case KDVAuto:
		return "auto"
	case KDVNaive:
		return "naive"
	case KDVGridCutoff:
		return "grid-cutoff"
	case KDVSweepLine:
		return "sweep-line"
	case KDVBoundApprox:
		return "bound-approx"
	case KDVSampled:
		return "sampled"
	}
	return fmt.Sprintf("KDVMethod(%d)", int(m))
}

// KDVOptions configures KDV (Definition 1 of the paper).
type KDVOptions struct {
	// Kernel is K and its bandwidth b.
	Kernel Kernel
	// Grid is the output raster.
	Grid PixelGrid
	// Method selects the algorithm; KDVAuto by default.
	Method KDVMethod
	// Normalize scales the surface into a probability density.
	Normalize bool
	// Workers parallelises raster rows; 0/1 serial, <0 GOMAXPROCS.
	Workers int

	// Epsilon is the relative error guarantee for KDVBoundApprox
	// (Equation 6) and the fractional additive error for KDVSampled.
	Epsilon float64
	// Delta is KDVSampled's failure probability.
	Delta float64
	// Seed drives KDVSampled's subset draw; the same (points, options,
	// Seed) always yields the same surface.
	Seed int64
	// Float32 opts into the single-precision fast path: kernel values come
	// from a precomputed lookup table over float32 columns, accumulated in
	// float64. Typical relative error is below 1e-3; the default float64
	// path stays bit-exact and is never affected. Supported by KDVNaive,
	// KDVGridCutoff and KDVAuto; the other methods reject it. Never
	// selected implicitly.
	Float32 bool
	// Ctx optionally bounds the computation (per-request timeouts, client
	// disconnects): raster workers check it between row chunks and KDV
	// returns ctx.Err() with a nil surface when it fires. Nil means no
	// cancellation. KDVDatasetCtx sets this field from its argument.
	Ctx context.Context
	// Window optionally restricts evaluation to a pixel sub-rectangle of
	// Grid (the shard coordinator's tile unit). Pixel centers come from the
	// full Grid, so the windowed raster is bit-identical to the matching
	// window of the full-extent result. Supported by KDVNaive (float64
	// path) only; other methods reject it. Zero value = whole grid.
	Window GridWindow
}

// KDV computes a kernel density surface of unweighted points over
// opt.Grid. It copies pts into columns once and runs the same evaluation
// as KDVDatasetCtx.
func KDV(pts []Point, opt KDVOptions) (*Heatmap, error) {
	return kdv(dataset.MakeColumns(pts, nil), opt)
}

// KDVDatasetCtx computes a kernel density surface directly from a
// Dataset's columnar storage, honouring ctx (see KDVOptions.Ctx). Every
// method reads the columns in place, with no []Point materialisation.
// Events are weighted by the dataset's weight column, set with
// Dataset.SetWeights; the approximate methods reject weighted datasets.
func KDVDatasetCtx(ctx context.Context, d *Dataset, opt KDVOptions) (*Heatmap, error) {
	opt.Ctx = ctx
	return kdv(d.Columns(), opt)
}

// kdv dispatches opt.Method over the columnar input.
func kdv(cols dataset.Columns, opt KDVOptions) (*Heatmap, error) {
	kopt := kde.Options{
		Kernel:    opt.Kernel,
		Grid:      opt.Grid,
		Normalize: opt.Normalize,
		Workers:   opt.Workers,
		Float32:   opt.Float32,
		Ctx:       opt.Ctx,
		Window:    opt.Window,
	}
	switch opt.Method {
	case KDVAuto:
		return kde.Exact(cols, kopt)
	case KDVNaive:
		return kde.Naive(cols, kopt)
	case KDVGridCutoff:
		return kde.GridCutoff(cols, kopt)
	case KDVSweepLine:
		return kde.SweepLine(cols, kopt)
	case KDVBoundApprox:
		return kde.BoundApprox(cols, kopt, opt.Epsilon)
	case KDVSampled:
		return kde.Sampled(cols, kopt, opt.Seed, opt.Epsilon, opt.Delta)
	}
	return nil, fmt.Errorf("geostat: unknown KDV method %d", int(opt.Method))
}

// SweepLineSupports reports whether the sweep-line method handles the
// kernel type (uniform, Epanechnikov, quartic, triweight).
func SweepLineSupports(t KernelType) bool { return kde.SweepSupported(t) }

// KDVSampleBound returns the Hoeffding subset size KDVSampled would use for
// the given raster size and (eps, delta) guarantee.
func KDVSampleBound(numPixels int, eps, delta float64) (int, error) {
	return kde.SampleBound(numPixels, eps, delta)
}

// KDVMultiBandwidth computes exact KDV surfaces for several bandwidths of
// one polynomial kernel in a single pass (the SAFE bandwidth-exploration
// sharing of §2.2): each extra bandwidth costs O(1) per pixel instead of a
// full support scan. Bandwidths must be strictly increasing.
func KDVMultiBandwidth(pts []Point, grid PixelGrid, typ KernelType, bandwidths []float64, workers int) ([]*Heatmap, error) {
	return kde.MultiBandwidth(pts, grid, typ, bandwidths, workers)
}

// KDVAdaptive computes a sample-point adaptive KDV: every point carries its
// own bandwidth (finite-support kernels only).
func KDVAdaptive(pts []Point, bandwidths []float64, typ KernelType, grid PixelGrid, workers int) (*Heatmap, error) {
	return kde.Adaptive(pts, bandwidths, typ, grid, workers)
}

// AdaptiveBandwidths derives per-point bandwidths from the k-th
// nearest-neighbour distance (scaled, floored) — the standard pilot for
// KDVAdaptive.
func AdaptiveBandwidths(pts []Point, k int, scale, minBandwidth float64) ([]float64, error) {
	return kde.AdaptiveBandwidths(pts, k, scale, minBandwidth)
}

// SilvermanBandwidth returns the 2-D normal-reference pilot bandwidth
// σ̂·n^{−1/6}.
func SilvermanBandwidth(pts []Point) (float64, error) { return kde.SilvermanBandwidth(pts) }

// SelectBandwidthCV picks the candidate bandwidth with the best held-out
// log-likelihood over random folds (finite-support kernels). The fold
// shuffle is reproducible from seed.
func SelectBandwidthCV(pts []Point, typ KernelType, candidates []float64, folds int, seed int64) (float64, error) {
	return kde.SelectBandwidthCV(pts, typ, candidates, folds, seed)
}

// KDVStream maintains a KDV surface under event insertions/removals (live
// hotspot maps over streaming data).
type KDVStream = kde.Stream

// NewKDVStream returns an empty streaming KDV surface (finite-support
// kernels).
func NewKDVStream(k Kernel, grid PixelGrid) (*KDVStream, error) { return kde.NewStream(k, grid) }

// KDVWindowStream drives a KDVStream over a time-ordered event log with a
// sliding window.
type KDVWindowStream = kde.WindowStream

// NewKDVWindowStream sorts the events by time and returns a sliding-window
// driver of the given width.
func NewKDVWindowStream(k Kernel, grid PixelGrid, pts []Point, times []float64, width float64) (*KDVWindowStream, error) {
	return kde.NewWindowStream(k, grid, pts, times, width)
}
