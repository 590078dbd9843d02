package kde

import (
	"fmt"
	"math"

	"geostat/internal/dataset"
	"geostat/internal/parallel"
	"geostat/internal/raster"
)

// SampleBound returns the subset size m such that estimating the mean
// kernel value F(q)/n from m uniform samples (with replacement) has
// additive error at most eps·Kmax simultaneously over all numPixels pixels
// with probability at least 1−delta, by Hoeffding's inequality plus a
// union bound:
//
//	m ≥ ln(2·XY/δ) / (2·ε²)
//
// (kernel values lie in [0, Kmax]; eps is expressed as a fraction of Kmax,
// making the bound kernel- and bandwidth-independent). This is the
// "non-trivial upper bound for the subset size" of §2.2's data-sampling
// family: m does not depend on n, so the speedup grows linearly with n.
func SampleBound(numPixels int, eps, delta float64) (int, error) {
	if !(eps > 0) || eps >= 1 {
		return 0, fmt.Errorf("kde: sampling needs 0 < eps < 1, got %g", eps)
	}
	if !(delta > 0) || delta >= 1 {
		return 0, fmt.Errorf("kde: sampling needs 0 < delta < 1, got %g", delta)
	}
	if numPixels < 1 {
		numPixels = 1
	}
	m := math.Log(2*float64(numPixels)/delta) / (2 * eps * eps)
	return int(math.Ceil(m)), nil
}

// Sampled computes an approximate KDV from a uniform random subset sized by
// SampleBound, evaluated exactly (GridCutoff when the kernel allows,
// otherwise Naive) and rescaled by n/m. The result F̂ satisfies, with
// probability ≥ 1−δ, |F̂(q) − F(q)| ≤ ε·Kmax·n simultaneously for every
// pixel q (equivalently: the per-point mean is within ε·Kmax).
//
// If the bound size reaches n the full dataset is used and the result is
// exact.
//
// The subset is drawn from a generator seeded with seed, so a given
// (columns, options, seed) triple always yields the same surface.
func Sampled(cols dataset.Columns, opt Options, seed int64, eps, delta float64) (*raster.Grid, error) {
	if err := opt.validate(cols); err != nil {
		return nil, err
	}
	if cols.W != nil {
		return nil, fmt.Errorf("kde: Sampled does not support event weights; use an exact method")
	}
	if opt.Float32 {
		return nil, fmt.Errorf("kde: Sampled does not support the float32 path; use Naive or GridCutoff")
	}
	if err := opt.rejectWindow("Sampled"); err != nil {
		return nil, err
	}
	m, err := SampleBound(opt.Grid.NumPixels(), eps, delta)
	if err != nil {
		return nil, err
	}
	n := cols.N()
	if m >= n {
		return Exact(cols, opt)
	}
	// Sample with replacement (matches the Hoeffding analysis directly).
	rng := parallel.NewRand(seed)
	xs := make([]float64, m)
	ys := make([]float64, m)
	for i := range xs {
		j := rng.Intn(n)
		xs[i], ys[i] = cols.X[j], cols.Y[j]
	}
	// Compute on the subset with normalisation disabled, then rescale by
	// n/m (and the caller's normalisation constant if requested).
	subOpt := opt
	subOpt.Normalize = false
	out, err := Exact(dataset.ColumnsOf(xs, ys, nil), subOpt)
	if err != nil {
		return nil, err
	}
	scale := float64(n) / float64(m) * opt.scale(n, nil)
	for i := range out.Values {
		out.Values[i] *= scale
	}
	return out, nil
}

// Exact computes the exact KDV with the best available exact algorithm for
// the kernel: SweepLine for polynomial kernels, GridCutoff for other
// finite-support kernels, Naive otherwise. This is the method the public
// facade exposes as the default. With Options.Float32 set (an explicit
// opt-out of exactness) it routes to the float32-capable methods instead.
func Exact(cols dataset.Columns, opt Options) (*raster.Grid, error) {
	if err := opt.validate(cols); err != nil {
		return nil, err
	}
	if err := opt.rejectWindow("Exact"); err != nil {
		return nil, err
	}
	if opt.Float32 {
		if opt.Kernel.FiniteSupport() {
			return GridCutoff(cols, opt)
		}
		return Naive(cols, opt)
	}
	if SweepSupported(opt.Kernel.Type()) {
		return SweepLine(cols, opt)
	}
	if opt.Kernel.FiniteSupport() {
		return GridCutoff(cols, opt)
	}
	return Naive(cols, opt)
}
