// Package kde implements kernel density visualization (KDV, Definition 1 of
// the paper): colouring each pixel q of an X×Y raster with the kernel
// density value F_P(q) = Σ_p w·K(q, p).
//
// Every raster method reads its input as a dataset.Columns view: the
// coordinate columns, the optional weight column W (the only source of
// event weights) and the per-chunk aggregates.
//
// Every acceleration family the paper's §2.2 reviews is implemented:
//
//   - Naive: the O(XYn) baseline every off-the-shelf GIS package uses.
//   - GridCutoff: exact for finite-support kernels; a bucket index limits
//     each pixel to the points inside the kernel support.
//   - SweepLine: the computational-sharing family (SLAM [32]); exact for
//     kernels polynomial in squared distance (uniform, Epanechnikov,
//     quartic, triweight) in O(Y·(X+n)) time via per-row polynomial
//     coefficient aggregation.
//   - BoundApprox: the function-approximation family (QUAD [25], KARL [34]);
//     works for every kernel including Gaussian, refining ball-tree node
//     brackets per pixel until UB/LB ≤ 1+ε (Equation 6's guarantee).
//   - Sampled: the data-sampling family ([77–79, 110, 111]); a uniform
//     random subset sized by a Hoeffding bound gives an additive error
//     guarantee with probability 1−δ.
//
// All entry points share Options and return a raster.Grid; Workers > 1
// parallelises over raster rows (the paper's parallel/hardware family,
// realised as goroutine sharding).
package kde

import (
	"context"
	"fmt"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/kernel"
	"geostat/internal/obs"
	"geostat/internal/parallel"
	"geostat/internal/raster"
)

// Options configures a KDV computation.
type Options struct {
	// Kernel is the kernel function K and bandwidth b.
	Kernel kernel.Kernel
	// Grid is the raster over which F is evaluated.
	Grid geom.PixelGrid
	// Normalize scales the surface by NormConst/n so it integrates to ~1
	// (a probability density). False matches the paper's raw Σ K convention.
	Normalize bool
	// Workers is the parallelism degree; 0 or 1 is serial, negative means
	// GOMAXPROCS.
	Workers int
	// Float32 opts into the approximate fast path: float32 coordinate
	// columns, a precomputed kernel lookup table, and truncation of
	// infinite-support kernels at Kernel.SupportRadius. Results differ from
	// the exact float64 path by float32 rounding noise (see the error-bound
	// tests). Supported by Naive, GridCutoff and Exact; SweepLine,
	// BoundApprox and Sampled reject it. Never selected implicitly.
	Float32 bool
	// Ctx optionally bounds the computation: workers check it between row
	// chunks and the entry point returns ctx.Err() (with a nil grid) when
	// it fires. Nil means no cancellation (context.Background()).
	Ctx context.Context
	// Window optionally restricts evaluation to a pixel sub-rectangle of
	// Grid (the shard coordinator's tile unit). Pixel centers still come
	// from the full Grid — Center(Window.X0+ix, Window.Y0+iy) — so a
	// windowed raster is bit-identical to the corresponding window of the
	// full-extent result. The zero value means the whole grid. Supported
	// by Naive only (the float64 path); every other method rejects it
	// rather than silently evaluating the full grid.
	Window geom.GridWindow
}

// context returns the effective context of the computation.
func (o *Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// scale returns the multiplier applied to the raw kernel sums of n points
// with weight column w (nil means all 1). With weights, the normalising
// mass is the total weight rather than the point count, so the surface
// still integrates to ~1.
func (o *Options) scale(n int, w []float64) float64 {
	if !o.Normalize || n == 0 {
		return 1
	}
	mass := float64(n)
	if w != nil {
		mass = 0
		for _, wi := range w {
			mass += wi
		}
		if mass == 0 {
			return 1
		}
	}
	return o.Kernel.NormConst() / mass
}

// validate rejects option and input combinations that would otherwise
// fail deep in a worker goroutine.
func (o *Options) validate(cols dataset.Columns) error {
	if o.Kernel.Bandwidth() <= 0 {
		return fmt.Errorf("kde: kernel not initialised (zero bandwidth); use kernel.New")
	}
	if o.Grid.NX <= 0 || o.Grid.NY <= 0 {
		return fmt.Errorf("kde: grid not initialised (%dx%d)", o.Grid.NX, o.Grid.NY)
	}
	if cols.W != nil && len(cols.W) != cols.N() {
		return fmt.Errorf("kde: %d points but %d weights", cols.N(), len(cols.W))
	}
	return nil
}

// pointView materialises the columns as points for the spatial indexes
// (grid buckets, ball tree), which copy them into their own cell or node
// order anyway.
func pointView(cols dataset.Columns) []geom.Point {
	pts := make([]geom.Point, cols.N())
	for i := range pts {
		pts[i] = geom.Point{X: cols.X[i], Y: cols.Y[i]}
	}
	return pts
}

// rejectWindow fails when a Window is set on a method that cannot evaluate
// one. Only the naive columnar path computes windows; the other methods
// must refuse rather than return a full grid the caller would misplace.
func (o *Options) rejectWindow(method string) error {
	if !o.Window.IsZero() {
		return fmt.Errorf("kde: %s does not support windowed evaluation (Options.Window); use Naive", method)
	}
	return nil
}

// rowComputer computes one raster row of kernel sums (unscaled). Row
// computations must be independent so the driver can shard them across
// goroutines.
type rowComputer interface {
	computeRow(iy int, row []float64)
}

// run evaluates every row of opt.Grid through rc, applying the
// normalisation scale of n points with weight column w, serially or with
// opt.Workers goroutines (dynamically scheduled through internal/parallel).
// When opt.Ctx fires mid-run the partial grid is discarded and ctx.Err()
// returned.
//
// With a non-zero opt.Window only the window's rows are evaluated and the
// output grid is window-sized (Spec = SubGrid of the window): computeRow
// receives the PARENT row index, so centers match the full-extent raster
// bit-for-bit. Entry points whose computers ignore the window offset must
// reject windows via rejectWindow before reaching here.
func run(rc rowComputer, opt *Options, n int, w []float64) (*raster.Grid, error) {
	win := opt.Window
	spec := opt.Grid
	if win.IsZero() {
		win = opt.Grid.FullWindow()
	} else if err := opt.Grid.CheckWindow(win); err != nil {
		return nil, err
	} else {
		spec = opt.Grid.SubGrid(win)
	}
	out := raster.NewGrid(spec)
	scale := opt.scale(n, w)
	nx := win.NX
	ctx, span := obs.Trace(opt.context(), "kde.evaluate")
	defer span.End()
	span.SetAttrInt("points", int64(n))
	if err := parallel.ForCtx(ctx, win.NY, opt.Workers, func(iy int) {
		rc.computeRow(win.Y0+iy, out.Values[iy*nx:(iy+1)*nx])
	}); err != nil {
		return nil, err
	}
	//lint:allow floateq scale()==1 is an exact sentinel for "no normalisation"
	if scale != 1 {
		for i := range out.Values {
			out.Values[i] *= scale
		}
	}
	return out, nil
}
