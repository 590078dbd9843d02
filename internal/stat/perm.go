package stat

import (
	"context"
	"math"
	"math/rand"

	"geostat/internal/parallel"
)

// PermOptions configures a permutation test. Permutation p shuffles its
// own copy of the values with an RNG derived deterministically from
// (Seed, p), so results are bit-identical for every Workers value.
type PermOptions struct {
	// Perms is the number of permutations; 0 skips the test.
	Perms int
	// Seed drives the permutation RNGs.
	Seed int64
	// Workers fans permutations out across goroutines (0/1 serial, <0
	// GOMAXPROCS).
	Workers int
	// Ctx optionally bounds the permutation test: workers check it between
	// task chunks and the entry point returns ctx.Err() (with a nil
	// result) when it fires. Nil means no cancellation.
	Ctx context.Context
}

// Context returns the effective context of the test.
func (o PermOptions) Context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Permute evaluates statistic on opt.Perms random permutations of values,
// fanning out across opt.Workers. Each permutation copies values into a
// per-worker buffer and shuffles it with its own derived RNG — no
// cross-permutation state, so any worker count gives the same samples.
func Permute(values []float64, opt PermOptions, statistic func(perm []float64) float64) ([]float64, error) {
	n := len(values)
	samples := make([]float64, opt.Perms)
	_, err := parallel.MonteCarloScratchCtx(opt.Context(), opt.Perms, opt.Workers, opt.Seed,
		func() []float64 { return make([]float64, n) },
		func(rng *rand.Rand, perm []float64, p int) {
			copy(perm, values)
			rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			samples[p] = statistic(perm)
		})
	if err != nil {
		return nil, err
	}
	return samples, nil
}

// PermSummary reduces a permutation distribution to its mean/std, the
// observed z-score, and the two-sided pseudo p-value (r+1)/(perms+1),
// r = #{|sample−mean| >= |obs−mean|}.
func PermSummary(obs float64, samples []float64) (mean, std, z, p float64) {
	mean, std = MeanStd(samples)
	if std > 0 {
		z = (obs - mean) / std
	}
	extreme := 0
	for _, s := range samples {
		if math.Abs(s-mean) >= math.Abs(obs-mean) {
			extreme++
		}
	}
	p = float64(extreme+1) / float64(len(samples)+1)
	return mean, std, z, p
}
