// Package nkdv implements network kernel density visualization (§2.2 of
// the paper, Xie & Yan [96]): KDV with the Euclidean distance replaced by
// the shortest-path distance over a road network, evaluated on lixels
// (linear pixels) instead of raster pixels.
//
// Two algorithms are provided:
//
//   - Naive: for every lixel center, a bounded Dijkstra collects distances
//     to every event — O(L · (E log V + n)), the direct analogue of the
//     O(XYn) planar baseline.
//   - Forward: one bounded Dijkstra per EVENT, pushing kernel mass out to
//     every lixel within the bandwidth — O(n · (E_b log V_b + L_b)) where
//     the _b quantities are restricted to the bandwidth ball. This is the
//     event-expansion structure of the fast NKDV algorithms the paper
//     reviews ([30, 81, 96]); with n ≪ L (dense lixelisation) it is the
//     practical winner.
//
// Both produce identical values: Σ_events K(d_G(lixel center, event)).
package nkdv

import (
	"context"
	"fmt"
	"math"
	"sync"

	"geostat/internal/kernel"
	"geostat/internal/network"
	"geostat/internal/obs"
	"geostat/internal/parallel"
)

// Options configures an NKDV computation.
type Options struct {
	// Kernel is applied to shortest-path distances.
	Kernel kernel.Kernel
	// LixelLength is the target lixel size (network distance units).
	LixelLength float64
	// Workers parallelises the outer loop; 0/1 serial, <0 GOMAXPROCS.
	Workers int
	// Ctx optionally bounds the computation: workers check it between
	// chunks and the entry point returns ctx.Err() (with a nil surface)
	// when it fires. Nil means no cancellation (context.Background()).
	Ctx context.Context
}

// context returns the effective context of the computation.
func (o *Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o *Options) validate() error {
	if o.Kernel.Bandwidth() <= 0 {
		return fmt.Errorf("nkdv: kernel not initialised (zero bandwidth); use kernel.New")
	}
	if !(o.LixelLength > 0) {
		return fmt.Errorf("nkdv: LixelLength must be positive, got %g", o.LixelLength)
	}
	if !o.Kernel.FiniteSupport() {
		return fmt.Errorf("nkdv: infinite-support kernel %v not supported on networks (unbounded Dijkstra per event); use a finite-support kernel", o.Kernel.Type())
	}
	return nil
}

// Surface is an NKDV result: a density value per lixel.
type Surface struct {
	Lixels  []network.Lixel
	EdgeOff []int32 // lixels of edge e are Lixels[EdgeOff[e]:EdgeOff[e+1]]
	Values  []float64
}

// ArgMax returns the index of the densest lixel, or -1 if empty.
func (s *Surface) ArgMax() int {
	best := -1
	bestV := math.Inf(-1)
	for i, v := range s.Values {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// MaxAbsDiff returns the largest per-lixel difference between two surfaces
// over the same lixelisation.
func (s *Surface) MaxAbsDiff(o *Surface) (float64, error) {
	if len(s.Values) != len(o.Values) {
		return 0, fmt.Errorf("nkdv: surface sizes differ (%d vs %d)", len(s.Values), len(o.Values))
	}
	m := 0.0
	for i := range s.Values {
		if d := math.Abs(s.Values[i] - o.Values[i]); d > m {
			m = d
		}
	}
	return m, nil
}

// Naive computes NKDV with one bounded Dijkstra per lixel center.
func Naive(g *network.Graph, events []network.Position, opt Options) (*Surface, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	ctx := opt.context()
	_, lspan := obs.Trace(ctx, "nkdv.lixelize")
	lixels, edgeOff := network.Lixelize(g, opt.LixelLength)
	lspan.End()
	s := &Surface{Lixels: lixels, EdgeOff: edgeOff, Values: make([]float64, len(lixels))}
	b := opt.Kernel.Bandwidth()

	// Group events by edge for distance evaluation from a lixel's search.
	byEdge := groupByEdge(events)

	// Each lixel writes only its own value, so workers share nothing but
	// their Dijkstra engine; dynamic chunking rebalances the skew between
	// lixels in dense and sparse network regions.
	ectx, espan := obs.Trace(ctx, "nkdv.evaluate")
	defer espan.End()
	_, err := parallel.ForScratchCtx(ectx, len(lixels), opt.Workers,
		func() *network.Dijkstra { return network.NewDijkstra(g) },
		func(dij *network.Dijkstra, li int) {
			center := lixels[li].Position()
			dij.FromPosition(center, b)
			sum := 0.0
			// Every edge with a reached endpoint may hold in-range events; the
			// lixel's own edge always qualifies.
			seen := map[int32]bool{center.Edge: true}
			accumulate := func(ei int32) {
				for _, ev := range byEdge[ei] {
					d := dij.PositionDist(ev, center, true)
					if d <= b {
						sum += opt.Kernel.Eval(d)
					}
				}
			}
			accumulate(center.Edge)
			for _, u := range dij.Reached() {
				g.Neighbors(u, func(_, ei int32, _ float64) {
					if !seen[ei] {
						seen[ei] = true
						accumulate(ei)
					}
				})
			}
			s.Values[li] = sum
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// contrib is one event's kernel contribution to one lixel.
type contrib struct {
	li int32
	v  float64
}

// chunkRec holds the contributions of a finished chunk of events [lo, hi)
// in event order, waiting until every earlier chunk has been applied.
type chunkRec struct {
	hi  int
	buf []contrib
}

// expandEvents runs expand for every event and adds the contributions it
// emits into values in event order, and in emission order within an event
// — the summation order of a serial loop — so overlapping footprints sum
// to the same bits for every worker count and schedule. Serially, emit
// adds straight into values. In parallel, each dynamically scheduled chunk
// of events records its contributions into a reused buffer, and finished
// chunks are applied in event order by one worker at a time — whichever
// closes the gap — while the others keep expanding.
func expandEvents[S any](ctx context.Context, n, workers int, newScratch func() S,
	expand func(sc S, i int, emit func(li int32, v float64)), values []float64) error {
	nw := parallel.Workers(workers)
	if nw <= 1 {
		add := func(li int32, v float64) { values[li] += v }
		_, err := parallel.ForScratchCtx(ctx, n, 1, newScratch, func(sc S, i int) { expand(sc, i, add) })
		return err
	}
	idle := make(chan S, nw) // at most nw scratches exist, so sends never block
	var mu sync.Mutex
	next := 0                       // first event not yet applied
	ready := make(map[int]chunkRec) // finished chunks keyed by first event
	var free [][]contrib            // applied buffers, reused
	applying := false               // one worker at a time applies, outside mu
	return parallel.ForRangeCtx(ctx, n, nw, func(lo, hi int) {
		var sc S
		select {
		case sc = <-idle:
		default:
			sc = newScratch()
		}
		var buf []contrib
		mu.Lock()
		if k := len(free); k > 0 {
			buf, free = free[k-1][:0], free[:k-1]
		}
		mu.Unlock()
		emit := func(li int32, v float64) { buf = append(buf, contrib{li, v}) }
		for i := lo; i < hi; i++ {
			expand(sc, i, emit)
		}
		idle <- sc
		mu.Lock()
		ready[lo] = chunkRec{hi, buf}
		if applying {
			mu.Unlock()
			return // the active applier will reach this chunk
		}
		applying = true
		for {
			rec, ok := ready[next]
			if !ok {
				applying = false
				mu.Unlock()
				return
			}
			delete(ready, next)
			mu.Unlock()
			for _, c := range rec.buf {
				values[c.li] += c.v
			}
			mu.Lock()
			free = append(free, rec.buf)
			next = rec.hi
		}
	})
}

// Forward computes NKDV with one bounded Dijkstra per event, adding the
// event's kernel mass to every lixel within the bandwidth.
func Forward(g *network.Graph, events []network.Position, opt Options) (*Surface, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	ctx := opt.context()
	_, lspan := obs.Trace(ctx, "nkdv.lixelize")
	lixels, edgeOff := network.Lixelize(g, opt.LixelLength)
	lspan.End()
	s := &Surface{Lixels: lixels, EdgeOff: edgeOff, Values: make([]float64, len(lixels))}
	b := opt.Kernel.Bandwidth()

	// Per worker: a Dijkstra engine and the dedup set of spread edges.
	type fwdScratch struct {
		dij  *network.Dijkstra
		seen map[int32]bool
	}
	ectx, espan := obs.Trace(ctx, "nkdv.evaluate")
	defer espan.End()
	err := expandEvents(ectx, len(events), opt.Workers,
		func() *fwdScratch { return &fwdScratch{dij: network.NewDijkstra(g), seen: make(map[int32]bool)} },
		func(sc *fwdScratch, i int, emit func(li int32, v float64)) {
			ev := events[i]
			sc.dij.FromPosition(ev, b)
			clear(sc.seen)
			spread := func(ei int32) {
				if sc.seen[ei] {
					return
				}
				sc.seen[ei] = true
				for li := edgeOff[ei]; li < edgeOff[ei+1]; li++ {
					d := sc.dij.PositionDist(lixels[li].Position(), ev, true)
					if d <= b {
						emit(li, opt.Kernel.Eval(d))
					}
				}
			}
			spread(ev.Edge)
			for _, u := range sc.dij.Reached() {
				g.Neighbors(u, func(_, ei int32, _ float64) { spread(ei) })
			}
		}, s.Values)
	if err != nil {
		return nil, err
	}
	return s, nil
}

func groupByEdge(events []network.Position) map[int32][]network.Position {
	m := make(map[int32][]network.Position)
	for _, ev := range events {
		m[ev.Edge] = append(m[ev.Edge], ev)
	}
	return m
}
