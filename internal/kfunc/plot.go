package kfunc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"geostat/internal/dataset"
	"geostat/internal/geom"
	"geostat/internal/parallel"
)

// Regime classifies a dataset's behaviour at one threshold relative to the
// Monte-Carlo envelope (the reading of Figure 2 in the paper).
type Regime int

const (
	// Random: K within [L(s), U(s)] — indistinguishable from CSR.
	Random Regime = iota
	// Clustered: K above U(s) — meaningful hotspots at this scale.
	Clustered
	// Dispersed: K below L(s) — points repel at this scale.
	Dispersed
)

// String returns the regime name.
func (r Regime) String() string {
	switch r {
	case Clustered:
		return "clustered"
	case Dispersed:
		return "dispersed"
	default:
		return "random"
	}
}

// Plot is a K-function plot (Definition 3): the observed curve K(s_d) and
// the pointwise min/max envelope over L simulated CSR datasets.
type Plot struct {
	S   []float64 // thresholds s_1..s_D
	K   []float64 // observed K_P(s_d), raw ordered-pair counts
	Lo  []float64 // L(s_d) = min over simulations (Equation 4)
	Hi  []float64 // U(s_d) = max over simulations (Equation 5)
	Sim int       // number of simulations L
}

// RegimeAt classifies the dataset at threshold index d per Figure 2.
func (p *Plot) RegimeAt(d int) Regime {
	switch {
	case p.K[d] > p.Hi[d]:
		return Clustered
	case p.K[d] < p.Lo[d]:
		return Dispersed
	default:
		return Random
	}
}

// PlotOptions configures MakePlot.
type PlotOptions struct {
	// Thresholds are the s_1 < ... < s_D evaluation distances.
	Thresholds []float64
	// Simulations is L, the number of random datasets for the envelope.
	Simulations int
	// Window is the region CSR simulations draw from. A zero box means the
	// data's bounding box.
	Window geom.BBox
	// Workers parallelises the observed curve AND fans the envelope
	// simulations out across goroutines (0/1 serial, <0 GOMAXPROCS). The
	// envelopes are bit-identical for every worker count: simulation l
	// draws from an RNG seeded deterministically from (seed, l).
	Workers int
	// Ctx optionally bounds the computation: the observed curve and the
	// envelope fan-out check it between chunks, and the plot constructors
	// return ctx.Err() (with a nil plot) when it fires. Nil means no
	// cancellation.
	Ctx context.Context
}

// context returns the effective context of the computation.
func (o *PlotOptions) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// newPlot allocates a Plot holding the observed counts with empty
// envelopes.
func newPlot(thresholds []float64, obs []int, sims int) *Plot {
	d := len(thresholds)
	p := &Plot{
		S:   append([]float64(nil), thresholds...),
		K:   make([]float64, d),
		Lo:  make([]float64, d),
		Hi:  make([]float64, d),
		Sim: sims,
	}
	for i, c := range obs {
		p.K[i] = float64(c)
		p.Lo[i] = math.Inf(1)
		p.Hi[i] = math.Inf(-1)
	}
	return p
}

// mergeEnvelope folds one simulation's counts into the pointwise min/max
// envelope. Min/max are order-insensitive, so concurrent merges (under the
// caller's lock) stay bit-identical for every worker count.
func (p *Plot) mergeEnvelope(counts []int) {
	for i, c := range counts {
		v := float64(c)
		p.Lo[i] = math.Min(p.Lo[i], v)
		p.Hi[i] = math.Max(p.Hi[i], v)
	}
}

// innerWorkers decides the parallelism of one simulation's curve: when the
// simulation fan-out itself is parallel, each simulation runs serially
// (the fan-out already saturates the cores); a serial fan-out passes the
// full worker budget down.
func innerWorkers(workers, sims int) int {
	if sims > 1 && parallel.Workers(workers) > 1 {
		return 1
	}
	return workers
}

// MakePlotWithNull computes a K-function plot whose envelope comes from a
// caller-supplied null model: simulate is called opt.Simulations times and
// must return a dataset of comparable size. This generalises Definition 3
// beyond CSR — e.g. pass a SampleFromIntensity closure for the
// inhomogeneous null ("same first-order intensity, no interaction"), or a
// random-labelling null for marked patterns.
//
// simulate is invoked SERIALLY (it may close over shared state such as a
// rand.Rand); only each simulated dataset's curve uses opt.Workers. For a
// fully parallel envelope use MakePlot, whose CSR simulations are seeded
// per simulation.
func MakePlotWithNull(pts []geom.Point, opt PlotOptions, simulate func() []geom.Point) (*Plot, error) {
	if opt.Simulations < 1 {
		return nil, fmt.Errorf("kfunc: need at least 1 simulation, got %d", opt.Simulations)
	}
	if err := checkThresholds(opt.Thresholds); err != nil {
		return nil, err
	}
	ctx := opt.context()
	obs, err := curve(ctx, pts, opt.Thresholds, opt.Workers)
	if err != nil {
		return nil, err
	}
	p := newPlot(opt.Thresholds, obs, opt.Simulations)
	for l := 0; l < opt.Simulations; l++ {
		counts, err := curve(ctx, simulate(), opt.Thresholds, opt.Workers)
		if err != nil {
			return nil, err
		}
		p.mergeEnvelope(counts)
	}
	return p, nil
}

// makePlotSeeded computes a K-function plot whose envelope simulations fan
// out across opt.Workers goroutines. simulate(rng, l) must generate the
// l-th null dataset from rng alone (it is called concurrently); rng is
// seeded deterministically from (seed, l), so the envelopes are
// bit-identical for every worker count. Each simulation's curve checks ctx
// too, so a running simulation stops within one chunk of cancellation.
func makePlotSeeded(pts []geom.Point, opt PlotOptions, seed int64, simulate func(rng *rand.Rand, l int) []geom.Point) (*Plot, error) {
	if opt.Simulations < 1 {
		return nil, fmt.Errorf("kfunc: need at least 1 simulation, got %d", opt.Simulations)
	}
	if err := checkThresholds(opt.Thresholds); err != nil {
		return nil, err
	}
	ctx := opt.context()
	obs, err := curve(ctx, pts, opt.Thresholds, opt.Workers)
	if err != nil {
		return nil, err
	}
	p := newPlot(opt.Thresholds, obs, opt.Simulations)
	inner := innerWorkers(opt.Workers, opt.Simulations)
	var mu sync.Mutex
	var firstErr error
	mcErr := parallel.MonteCarloCtx(ctx, opt.Simulations, opt.Workers, seed, func(rng *rand.Rand, l int) {
		counts, err := curve(ctx, simulate(rng, l), opt.Thresholds, inner)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		p.mergeEnvelope(counts)
	})
	if mcErr != nil {
		return nil, mcErr
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return p, nil
}

// MakePlot computes a K-function plot for pts: the observed curve plus
// min/max envelopes over opt.Simulations CSR datasets of the same size
// (Definition 3). rng seeds the simulations; pass a seeded source for
// reproducibility. Simulations fan out across opt.Workers with
// bit-identical results for every worker count.
func MakePlot(pts []geom.Point, opt PlotOptions, rng *rand.Rand) (*Plot, error) {
	window := opt.Window
	if window.IsEmpty() || window.Area() == 0 {
		window = geom.NewBBox(pts)
		if window.IsEmpty() || window.Area() == 0 {
			return nil, fmt.Errorf("kfunc: degenerate window; provide PlotOptions.Window")
		}
	}
	n := len(pts)
	return makePlotSeeded(pts, opt, rng.Int63(), func(rng *rand.Rand, _ int) []geom.Point {
		return dataset.UniformCSR(rng, n, window).Points()
	})
}
