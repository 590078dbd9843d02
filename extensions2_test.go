package geostat

import (
	"math"
	"math/rand"
	"testing"
)

// Facade wiring for the second extension batch: Geary's C, LISA quadrants,
// cross-K, Knox, streaming KDV, contours, count grids.

func TestGearyFacade(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	d := UniformCSR(r, 300, box)
	WithField(r, d, func(p Point) float64 { return p.X }, 0.5)
	w, err := KNNWeightsWorkers(d.Points(), 6, -1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := GearyCOpt(d.Values(), w, MoranOptions{Perms: 99, Seed: r.Int63(), Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if g.C >= 1 {
		t.Errorf("gradient Geary C = %v, want < 1", g.C)
	}
	q, err := MoranQuadrants(d.Values(), w)
	if err != nil {
		t.Fatal(err)
	}
	hh, ll := 0, 0
	for _, v := range q {
		switch v {
		case QuadrantHH:
			hh++
		case QuadrantLL:
			ll++
		}
	}
	// A gradient field is dominated by HH and LL sites.
	if hh+ll < len(q)*3/4 {
		t.Errorf("gradient field HH+LL = %d of %d", hh+ll, len(q))
	}
}

func TestCrossKAndKnoxFacade(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	bars := UniformCSR(r, 20, box).Points()
	var crimes []Point
	for len(crimes) < 200 {
		c := bars[r.Intn(len(bars))]
		p := Point{X: c.X + r.NormFloat64()*2, Y: c.Y + r.NormFloat64()*2}
		if box.Contains(p) {
			crimes = append(crimes, p)
		}
	}
	if CrossKFunction(crimes, bars, 3) == 0 {
		t.Error("cross K zero on attracted types")
	}
	curve, err := CrossKFunctionCurve(crimes, bars, []float64{1, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	if curve[2] != CrossKFunction(crimes, bars, 9) {
		t.Error("cross curve disagrees with single threshold")
	}
	plot, err := CrossKFunctionPlot(crimes, bars, []float64{1, 3, 9}, 9, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if plot.RegimeAt(1) != RegimeClustered {
		t.Errorf("cross plot regime = %v", plot.RegimeAt(1))
	}

	d := SpatioTemporalOutbreak(r, 500, box, 0, 100, []OutbreakWave{
		{Center: Point{X: 30, Y: 30}, Sigma: 5, TimeMean: 25, TimeSigma: 6, Weight: 1},
		{Center: Point{X: 70, Y: 70}, Sigma: 5, TimeMean: 75, TimeSigma: 6, Weight: 1},
	}, 0.2)
	knox, err := KnoxTest(d.Points(), d.Times(), 5, 10, 99, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	if knox.P > 0.05 {
		t.Errorf("Knox p = %v on interacting data", knox.P)
	}
}

func TestStreamingFacade(t *testing.T) {
	k := MustKernel(Quartic, 8)
	grid := NewPixelGrid(box, 20, 20)
	s, err := NewKDVStream(k, grid)
	if err != nil {
		t.Fatal(err)
	}
	s.Add(Point{X: 50, Y: 50})
	s.Add(Point{X: 20, Y: 20})
	s.Remove(Point{X: 20, Y: 20})
	if s.Count() != 1 {
		t.Errorf("Count = %d", s.Count())
	}
	single, err := KDV([]Point{{X: 50, Y: 50}}, KDVOptions{Kernel: k, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := s.Snapshot().MaxAbsDiff(single); d > 1e-9 {
		t.Errorf("stream differs by %v", d)
	}

	r := rand.New(rand.NewSource(62))
	d2 := SpatioTemporalOutbreak(r, 200, box, 0, 50, nil, 1)
	w, err := NewKDVWindowStream(k, grid, d2.Points(), d2.Times(), 10)
	if err != nil {
		t.Fatal(err)
	}
	w.Advance(25)
	if w.Live() == 0 || w.Live() == 200 {
		t.Errorf("window Live = %d", w.Live())
	}
}

func TestContourFacade(t *testing.T) {
	pts := hotspotData(63, 3000).Points()
	grid := NewPixelGrid(box, 100, 100)
	hm, err := KDV(pts, KDVOptions{Kernel: MustKernel(Quartic, 8), Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	_, _, peak := hm.ArgMax()
	segs := hm.Contour(peak / 2)
	if len(segs) < 10 {
		t.Fatalf("only %d contour segments", len(segs))
	}
	// All half-peak contour points lie near the planted cluster (30, 60).
	for _, s := range segs {
		mid := Point{X: (s.A.X + s.B.X) / 2, Y: (s.A.Y + s.B.Y) / 2}
		if mid.Dist(Point{X: 30, Y: 60}) > 25 {
			t.Fatalf("contour point %v far from hotspot", mid)
		}
	}
	if hm.AreaAbove(peak/2) <= 0 {
		t.Error("hotspot area zero")
	}

	counts := CountGrid(pts, NewPixelGrid(box, 10, 10))
	if int(counts.Sum()) != len(pts) {
		t.Errorf("CountGrid sum %v, want %d", counts.Sum(), len(pts))
	}
}

func TestContourLevelSets(t *testing.T) {
	// Nested contours: higher levels enclose smaller areas.
	pts := hotspotData(64, 2000).Points()
	grid := NewPixelGrid(box, 80, 80)
	hm, err := KDV(pts, KDVOptions{Kernel: MustKernel(Quartic, 10), Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	_, _, peak := hm.ArgMax()
	prev := math.Inf(1)
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		a := hm.AreaAbove(peak * frac)
		if a >= prev {
			t.Fatalf("AreaAbove not nested at %v: %v >= %v", frac, a, prev)
		}
		prev = a
	}
}
