package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"sync"
)

// Every input the benchmark sends is a pure function of (workload, seed,
// op index): datasets and per-op parameters are drawn from generators
// seeded by mix, never from shared mutable state, so two clients can take
// op indices from one counter and a traced replay sees the same ops.

// Workload sizes. They are sized so that a 20 s run on a 2-core host
// completes at least 200 ops per workload (the p95 needs ten samples
// beyond it) while each op keeps the single shape its workload is for.
const (
	heatmapN     = 100_000 // points in the heatmap dataset
	heatmapPx    = 144     // heatmap raster side
	statsN       = 5_000   // points (with values) in the stats dataset
	ingestN      = 50_000  // points per ingest upload
	ingestPx     = 128     // ingest raster side
	shardN       = 20_000  // points in the shard dataset
	shardPx      = 128     // shard raster side
	shardTiles   = 2       // tiles per axis
	shardBW      = 2.0     // shard kernel bandwidth (quartic)
	statsSmax    = 3.0
	statsSteps   = 8
	statsSims    = 9
	statsK       = 8
	statsPerms   = 99
	warmupPerCli = 2
)

var workloads = []string{"heatmap", "stats", "ingest", "shard"}

// mix is a splitmix64 finaliser over the seed and a stream of keys, used
// to derive independent generator seeds.
func mix(seed int64, keys ...int64) int64 {
	z := uint64(seed)
	for _, k := range keys {
		z ^= uint64(k) + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// Stream keys keep the generators of different purposes apart.
const (
	keyData = iota + 1
	keyOp
	keyIngest
	keyVerify
)

func workloadKey(w string) int64 {
	for i, name := range workloads {
		if name == w {
			return int64(i + 1)
		}
	}
	return 0
}

// clusters is the fixed hotspot layout every dataset draws from. Only
// the draws come from the seed: a seeded layout would change how much
// work a viewport holds from seed to seed, and the benchmark's run-to-run
// spread is measured across seeds.
var clusters = []struct{ cx, cy, sigma, weight float64 }{
	{30, 30, 6, 2}, {70, 60, 10, 1}, {25, 75, 4, 0.7}, {80, 20, 8, 0.8},
}

// genPoints draws n points in the [0,100]² study box: Gaussian clusters
// over 15% uniform noise. With values, each point carries a smooth field
// plus noise, so Moran's I and General G have spatial structure to find.
func genPoints(r *rand.Rand, n int, values bool) (xs, ys, vs []float64) {
	total := 0.0
	for _, c := range clusters {
		total += c.weight
	}
	xs, ys = make([]float64, n), make([]float64, n)
	if values {
		vs = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		var x, y float64
		for {
			if r.Float64() < 0.15 {
				x, y = 100*r.Float64(), 100*r.Float64()
			} else {
				u := r.Float64() * total
				c := clusters[len(clusters)-1]
				for _, cc := range clusters {
					if u < cc.weight {
						c = cc
						break
					}
					u -= cc.weight
				}
				x, y = c.cx+c.sigma*r.NormFloat64(), c.cy+c.sigma*r.NormFloat64()
			}
			if x >= 0 && x <= 100 && y >= 0 && y <= 100 {
				break
			}
		}
		xs[i], ys[i] = x, y
		if values {
			bump := math.Exp(-((x-35)*(x-35) + (y-35)*(y-35)) / (2 * 15 * 15))
			vs[i] = 10 + x/10 + y/20 + 5*bump + 0.5*r.NormFloat64()
		}
	}
	return xs, ys, vs
}

// csvBody encodes points in the x,y[,value] layout geostatd parses, with
// shortest round-trip floats so the server reads back the exact bits.
func csvBody(xs, ys, vs []float64) []byte {
	b := make([]byte, 0, len(xs)*40)
	if vs != nil {
		b = append(b, "x,y,value\n"...)
	} else {
		b = append(b, "x,y\n"...)
	}
	for i := range xs {
		b = strconv.AppendFloat(b, xs[i], 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, ys[i], 'g', -1, 64)
		if vs != nil {
			b = append(b, ',')
			b = strconv.AppendFloat(b, vs[i], 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	return b
}

// setupName is the name the setup dataset is uploaded under.
func setupName(w string) string { return w }

// datasetCSV is the workload's setup dataset (nil for ingest, whose
// datasets arrive with each op).
func datasetCSV(w string, seed int64) []byte {
	r := rng(seed, workloadKey(w), keyData)
	switch w {
	case "heatmap":
		return csvBody(genPoints(r, heatmapN, false))
	case "stats":
		return csvBody(genPoints(r, statsN, true))
	case "shard":
		return csvBody(genPoints(r, shardN, false))
	}
	return nil
}

// ingestCSV is the upload body of ingest op i: one of ingestBases
// 50k-point patterns plus one point drawn for op i alone, which makes
// every body distinct while each op parses and evaluates the same amount
// of data. Drawing a whole pattern per op would put tens of milliseconds
// of client CPU into every op, competing with the server for the cores.
func ingestCSV(seed, i int64) []byte {
	bases := ingestBases(seed)
	base := bases[((i%int64(len(bases)))+int64(len(bases)))%int64(len(bases))]
	r := rng(seed, workloadKey("ingest"), keyIngest, i)
	b := make([]byte, len(base), len(base)+48)
	copy(b, base)
	b = strconv.AppendFloat(b, 100*r.Float64(), 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, 100*r.Float64(), 'g', -1, 64)
	return append(b, '\n')
}

var ingestPool struct {
	sync.Mutex
	seed  int64
	bases [][]byte
}

// ingestBases returns the seed's base patterns, generated on first use.
func ingestBases(seed int64) [][]byte {
	ingestPool.Lock()
	defer ingestPool.Unlock()
	if ingestPool.bases == nil || ingestPool.seed != seed {
		ingestPool.seed, ingestPool.bases = seed, make([][]byte, 8)
		for k := range ingestPool.bases {
			r := rng(seed, workloadKey("ingest"), keyIngest, -1-int64(k))
			ingestPool.bases[k] = csvBody(genPoints(r, ingestN, false))
		}
	}
	return ingestPool.bases
}

// viewport draws a pan/zoom window over the study box: a side of 50 to
// 100 units around a centre that keeps the window inside the box.
// Warm-up ops (negative indices) use a fixed 75-unit side so that set-up
// does the same amount of work for every seed.
func viewport(r *rand.Rand, i int64) [4]float64 {
	side := 50 + 50*r.Float64()
	if i < 0 {
		side = 75
	}
	cx := side/2 + (100-side)*r.Float64()
	cy := side/2 + (100-side)*r.Float64()
	return [4]float64{cx - side/2, cy - side/2, cx + side/2, cy + side/2}
}

func bboxParam(b [4]float64) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return f(b[0]) + "," + f(b[1]) + "," + f(b[2]) + "," + f(b[3])
}

// Op is one planned operation. Requests are GETs run in order; ingest ops
// first POST Upload (the body comes from ingestCSV) to Dataset.
type Op struct {
	Index    int64     `json:"index"`
	Requests []string  `json:"requests,omitempty"`
	Upload   string    `json:"upload,omitempty"`
	Viewport []float64 `json:"viewport,omitempty"`
	Seed     int64     `json:"seed,omitempty"`
}

// planOp returns op i of workload w. client names the per-client dataset
// of ingest ops (each client writes versions of its own dataset).
func planOp(w string, seed, i int64, client int) Op {
	r := rng(seed, workloadKey(w), keyOp, i)
	op := Op{Index: i}
	switch w {
	case "heatmap":
		vp := viewport(r, i)
		op.Viewport = vp[:]
		q := url.Values{}
		q.Set("dataset", setupName(w))
		q.Set("width", strconv.Itoa(heatmapPx))
		q.Set("height", strconv.Itoa(heatmapPx))
		q.Set("bbox", bboxParam(vp))
		op.Requests = []string{"/v1/kdv?" + q.Encode()}
	case "stats":
		op.Seed = r.Int63()
		s := strconv.FormatInt(op.Seed, 10)
		op.Requests = []string{
			fmt.Sprintf("/v1/kfunction?dataset=%s&smax=%g&steps=%d&sims=%d&seed=%s", setupName(w), statsSmax, statsSteps, statsSims, s),
			fmt.Sprintf("/v1/moran?dataset=%s&weights=knn&k=%d&perms=%d&seed=%s", setupName(w), statsK, statsPerms, s),
			fmt.Sprintf("/v1/generalg?dataset=%s&weights=knn&k=%d&perms=%d&seed=%s", setupName(w), statsK, statsPerms, s),
		}
	case "ingest":
		name := fmt.Sprintf("ingest%d", client)
		op.Upload = "/v1/datasets/" + name
		op.Requests = []string{fmt.Sprintf("/v1/kdv?dataset=%s&width=%d&height=%d", name, ingestPx, ingestPx)}
	case "shard":
		vp := viewport(r, i)
		op.Viewport = vp[:]
	}
	return op
}

// verifySampled reports whether op i belongs to the seeded verification
// sample (about one op in eight).
func verifySampled(w string, seed, i int64) bool {
	return mix(seed, workloadKey(w), keyVerify, i)%8 == 0
}
