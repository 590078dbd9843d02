package main

// layers.go holds every call the benchmark makes into geostat's Go API:
// the shard workload's in-process coordinator, the in-process
// recomputation that verifies sampled ops, and the direct layer calls the
// traced run times. The end-to-end path of the other workloads is HTTP
// only, so their end-to-end metrics never depend on the shape of the Go
// API.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"geostat"
	"geostat/internal/parallel"
	"geostat/internal/serve"
	"geostat/internal/shard"
)

type layers struct {
	cfg      config
	setupCSV []byte
	tr       *tracer // nil outside the traced run

	inproc    *serve.Server    // same Config as geostatd's defaults
	setupData *geostat.Dataset // the setup dataset, parsed in-process

	// shard workload
	full  *geostat.Dataset
	coord *shard.Coordinator
	rt    *recordingTransport

	// traced-run counts
	pairs                          map[int64]float64
	uploads, retries, tiles, shops float64
}

func newLayers(cfg config, setupCSV []byte) *layers {
	return &layers{cfg: cfg, setupCSV: setupCSV, pairs: map[int64]float64{}}
}

// fanOut runs fn(0..n-1) concurrently, one goroutine each, through the
// repo's parallel engine, and returns when all have returned.
func fanOut(n int, fn func(i int)) { parallel.For(n, n, fn) }

// rng is the seeded generator behind every generated input: geostat's own
// seed policy (math/rand's source at a splitmix-derived seed).
func rng(seed int64, keys ...int64) *rand.Rand { return geostat.NewRand(mix(seed, keys...)) }

func (l *layers) close() {
	if l.rt != nil {
		l.rt.base.CloseIdleConnections()
	}
}

// workers is the parallelism geostatd hands every tool call.
func (l *layers) workers() int {
	if l.cfg.serverWorkers != 0 {
		return l.cfg.serverWorkers
	}
	return -1
}

// parallelism is the number of goroutines workers() resolves to.
func (l *layers) parallelism() float64 {
	if w := l.workers(); w > 0 {
		return float64(w)
	}
	return float64(runtime.GOMAXPROCS(0))
}

// server returns the in-process serve.Server, holding the setup dataset
// under the name the workload's requests use.
func (l *layers) server() (*serve.Server, error) {
	if l.inproc != nil {
		return l.inproc, nil
	}
	l.inproc = serve.NewServer(serve.Config{
		Timeout: 30 * time.Second, MaxInFlight: 16, MaxQueue: 64,
		CacheBytes: 64 << 20, Workers: l.workers(),
	})
	if l.setupCSV != nil && l.cfg.workload != "shard" {
		d, err := geostat.ReadCSV(bytes.NewReader(l.setupCSV))
		if err != nil {
			return nil, err
		}
		l.setupData = d
		if _, err := l.inproc.Registry().Put(setupName(l.cfg.workload), d); err != nil {
			return nil, err
		}
	}
	return l.inproc, nil
}

// ---- shard workload ----

// recordingTransport times each worker request of a traced shard op and
// keeps what the in-process replay needs: method, target, upload body,
// response size and hash.
type recordingTransport struct {
	base *http.Transport
	mu   sync.Mutex
	on   bool
	reqs []capture
}

type capture struct {
	method, target string
	body           []byte
	start, end     time.Time
	n              int
	sum            [32]byte
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	on := t.on
	t.mu.Unlock()
	if !on {
		return t.base.RoundTrip(req)
	}
	c := capture{method: req.Method, target: req.URL.RequestURI()}
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		c.body = b
		req.Body = io.NopCloser(bytes.NewReader(b))
	}
	c.start = time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &tapBody{rc: resp.Body, h: sha256.New(), done: func(n int, sum [32]byte) {
		c.end, c.n, c.sum = time.Now(), n, sum
		t.mu.Lock()
		t.reqs = append(t.reqs, c)
		t.mu.Unlock()
	}}
	return resp, nil
}

func (t *recordingTransport) capture(on bool) []capture {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = on
	out := t.reqs
	t.reqs = nil
	return out
}

// tapBody counts and hashes a response body; done runs once, at Close.
type tapBody struct {
	rc   io.ReadCloser
	h    hash.Hash
	n    int
	once sync.Once
	done func(n int, sum [32]byte)
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.h.Write(p[:n])
	b.n += n
	return n, err
}

func (b *tapBody) Close() error {
	b.once.Do(func() {
		var sum [32]byte
		copy(sum[:], b.h.Sum(nil))
		b.done(b.n, sum)
	})
	return b.rc.Close()
}

// startShard parses the shard dataset and builds the coordinator over the
// worker URLs.
func (l *layers) startShard(urls []string) error {
	d, err := geostat.ReadCSV(bytes.NewReader(l.setupCSV))
	if err != nil {
		return err
	}
	l.full = d
	l.rt = &recordingTransport{base: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}}
	l.coord, err = shard.New(shard.Config{
		Workers: urls, Concurrency: 2, Client: &http.Client{Transport: l.rt},
	})
	return err
}

func shardRequest(vp []float64) shard.KDVRequest {
	box := geostat.BBox{MinX: vp[0], MinY: vp[1], MaxX: vp[2], MaxY: vp[3]}
	return shard.KDVRequest{
		Kernel: geostat.MustKernel(geostat.Quartic, shardBW),
		Grid:   geostat.NewPixelGrid(box, shardPx, shardPx),
		TilesX: shardTiles, TilesY: shardTiles,
	}
}

// shardName is op i's logical dataset name. Tile dataset names derive
// from it, so a per-op name makes every op plan, upload and compute its
// own tiles.
func shardName(i int64) string { return "s" + strconv.FormatInt(i, 10) }

// shardKDV runs op i: one sharded KDV over the viewport.
func (l *layers) shardKDV(ctx context.Context, i int64, vp []float64) ([]float64, error) {
	g, err := l.coord.KDV(ctx, l.full, shardName(i), shardRequest(vp))
	if err != nil {
		return nil, err
	}
	return g.Values, nil
}

// shardCounters reads the coordinator's upload, retry and tile counters.
func (l *layers) shardCounters() (uploads, retries, tiles float64) {
	var buf bytes.Buffer
	_ = l.coord.Metrics().WritePrometheus(&buf) // writes to a bytes.Buffer cannot fail
	p := parseProm(buf.Bytes())
	return p["shard_uploads_total"], p["shard_retries_total"], p["shard_tiles_total"]
}

// ---- in-process replay ----

func (l *layers) serveHTTP(i int64, parent int, method, target string, body []byte) ([]byte, error) {
	srv, err := l.server()
	if err != nil {
		return nil, err
	}
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s := l.tr.begin(i, parent, "serve.ServeHTTP")
	srv.ServeHTTP(rec, req)
	l.tr.end(s)
	if rec.Code/100 != 2 {
		return nil, fmt.Errorf("in-process %s %s: status %d: %s", method, target, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

// dataCalls times the dataset layer on one upload body: parse, store in a
// scratch registry, digest.
func (l *layers) dataCalls(i int64, parent int, body []byte) (*geostat.Dataset, error) {
	s := l.tr.begin(i, parent, "dataset.read_csv")
	d, err := geostat.ReadCSV(bytes.NewReader(body))
	l.tr.end(s)
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry()
	s = l.tr.begin(i, parent, "dataset.put")
	_, err = reg.Put("d", d)
	l.tr.end(s)
	if err != nil {
		return nil, err
	}
	s = l.tr.begin(i, parent, "dataset.digest")
	reg.Digest("d")
	l.tr.end(s)
	return d, nil
}

// traceSetupData times the dataset layer on the setup dataset, three
// times; it is the dataset layer's figure where ops upload nothing.
func (l *layers) traceSetupData() error {
	if l.setupCSV == nil {
		return nil
	}
	for rep := int64(0); rep < 3; rep++ {
		if _, err := l.dataCalls(-1-rep, -1, l.setupCSV); err != nil {
			return err
		}
	}
	return nil
}

func (l *layers) points(i int64, parent int, d *geostat.Dataset) []geostat.Point {
	s := l.tr.begin(i, parent, "dataset.points")
	defer l.tr.end(s)
	return d.Points()
}

// kdvOptions rebuilds geostatd's KDV options from a request query.
func (l *layers) kdvOptions(i int64, parent int, d *geostat.Dataset, q url.Values) (geostat.KDVOptions, error) {
	var opt geostat.KDVOptions
	switch q.Get("method") {
	case "", "auto":
		opt.Method = geostat.KDVAuto
	case "naive":
		opt.Method = geostat.KDVNaive
	default:
		return opt, fmt.Errorf("unsupported method %q", q.Get("method"))
	}
	kname := q.Get("kernel")
	if kname == "" {
		kname = "quartic"
	}
	kt, err := geostat.ParseKernel(kname)
	if err != nil {
		return opt, err
	}
	bw := 0.0
	if v := q.Get("bandwidth"); v != "" {
		if bw, err = strconv.ParseFloat(v, 64); err != nil {
			return opt, err
		}
	}
	if bw == 0 {
		pts := l.points(i, parent, d)
		s := l.tr.begin(i, parent, "kde.bandwidth")
		bw, err = geostat.SilvermanBandwidth(pts)
		l.tr.end(s)
		if err != nil {
			return opt, err
		}
	}
	if opt.Kernel, err = geostat.NewKernel(kt, bw); err != nil {
		return opt, err
	}
	nx, err1 := strconv.Atoi(q.Get("width"))
	ny, err2 := strconv.Atoi(q.Get("height"))
	if err1 != nil || err2 != nil {
		return opt, fmt.Errorf("width/height: %q %q", q.Get("width"), q.Get("height"))
	}
	box := d.Bounds()
	if raw := q.Get("bbox"); raw != "" {
		f, err := floats(raw, 4)
		if err != nil {
			return opt, err
		}
		box = geostat.BBox{MinX: f[0], MinY: f[1], MaxX: f[2], MaxY: f[3]}
	}
	opt.Grid = geostat.NewPixelGrid(box, nx, ny)
	if raw := q.Get("tile"); raw != "" {
		f, err := floats(raw, 4)
		if err != nil {
			return opt, err
		}
		opt.Window = geostat.GridWindow{X0: int(f[0]), Y0: int(f[1]), NX: int(f[2]), NY: int(f[3])}
	}
	opt.Workers, opt.Epsilon, opt.Delta, opt.Seed = l.workers(), 0.05, 0.01, 1
	return opt, nil
}

func floats(raw string, n int) ([]float64, error) {
	parts := strings.Split(raw, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("want %d numbers, got %q", n, raw)
	}
	out := make([]float64, n)
	for k, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

func (l *layers) kdv(i int64, parent int, name string, d *geostat.Dataset, opt geostat.KDVOptions) (*geostat.Heatmap, error) {
	s := l.tr.begin(i, parent, name)
	defer l.tr.end(s)
	return geostat.KDVDatasetCtx(context.Background(), d, opt)
}

// sameBits compares two float slices bit for bit.
func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			return fmt.Errorf("%s[%d] = %v, want %v", what, k, got[k], want[k])
		}
	}
	return nil
}

// replay recomputes op i in-process and requires bit-identity: the
// in-process serve.Server must return the exact bytes the HTTP call did,
// and the direct layer calls must reproduce every raster value and
// statistic. extra adds the traced run's serial and observed-curve calls.
func (l *layers) replay(i int64, root int, op Op, upload []byte, bodies [][]byte, extra bool) error {
	if _, err := l.server(); err != nil {
		return err
	}
	d := l.setupData
	if upload != nil {
		var err error
		if d, err = l.dataCalls(i, root, upload); err != nil {
			return err
		}
		if _, err := l.serveHTTP(i, root, http.MethodPost, op.Upload, upload); err != nil {
			return err
		}
	}
	for k, target := range op.Requests {
		got, err := l.serveHTTP(i, root, http.MethodGet, target, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, bodies[k]) {
			return fmt.Errorf("%s: in-process response differs from the HTTP response", target)
		}
		u, err := url.Parse(target)
		if err != nil {
			return err
		}
		if err := l.direct(i, root, u.Path, u.Query(), d, bodies[k], extra); err != nil {
			return fmt.Errorf("%s: %w", target, err)
		}
	}
	return nil
}

// direct runs one tool's layer calls as geostatd's handler makes them and
// compares the results with the response body.
func (l *layers) direct(i int64, root int, path string, q url.Values, d *geostat.Dataset, body []byte, extra bool) error {
	seed, _ := strconv.ParseInt(q.Get("seed"), 10, 64)
	switch path {
	case "/v1/kdv":
		opt, err := l.kdvOptions(i, root, d, q)
		if err != nil {
			return err
		}
		g, err := l.kdv(i, root, "kde.eval", d, opt)
		if err != nil {
			return err
		}
		var resp struct{ Values []float64 }
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if extra {
			opt.Workers = 1
			if _, err := l.kdv(i, root, "kde.eval_1w", d, opt); err != nil {
				return err
			}
		}
		return sameBits("raster", resp.Values, g.Values)
	case "/v1/kfunction":
		pts := l.points(i, root, d)
		th := make([]float64, statsSteps)
		for k := range th {
			th[k] = statsSmax * float64(k+1) / float64(statsSteps)
		}
		plot, err := l.kplot(i, root, "kfunc.plot", pts, th, l.workers(), seed)
		if err != nil {
			return err
		}
		var resp struct{ K, Lo, Hi []float64 }
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if extra {
			if _, err := l.kplot(i, root, "kfunc.plot_1w", pts, th, 1, seed); err != nil {
				return err
			}
			s := l.tr.begin(i, root, "kfunc.curve")
			counts, err := geostat.KFunctionCurve(pts, th, l.workers())
			l.tr.end(s)
			if err != nil {
				return err
			}
			l.pairs[i] = float64(counts[len(counts)-1])
		}
		for _, c := range []struct {
			name      string
			got, want []float64
		}{{"k", resp.K, plot.K}, {"lo", resp.Lo, plot.Lo}, {"hi", resp.Hi, plot.Hi}} {
			if err := sameBits(c.name, c.got, c.want); err != nil {
				return err
			}
		}
		return nil
	case "/v1/moran", "/v1/generalg":
		pts := l.points(i, root, d)
		k, _ := strconv.Atoi(q.Get("k"))
		perms, _ := strconv.Atoi(q.Get("perms"))
		s := l.tr.begin(i, root, "weights.knn")
		w, err := geostat.KNNWeightsWorkers(pts, k, l.workers())
		l.tr.end(s)
		if err != nil {
			return err
		}
		var resp struct {
			I, G, Z, P float64
			PermMean   float64 `json:"perm_mean"`
			PermStd    float64 `json:"perm_std"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		var got, want []float64
		if path == "/v1/moran" {
			s = l.tr.begin(i, root, "weights.rowstd")
			w.RowStandardize()
			l.tr.end(s)
			s = l.tr.begin(i, root, "moran.perm")
			res, err := geostat.MoranIOpt(d.Values(), w, geostat.MoranOptions{Perms: perms, Seed: seed, Workers: l.workers()})
			l.tr.end(s)
			if err != nil {
				return err
			}
			got = []float64{resp.I, resp.PermMean, resp.PermStd, resp.Z, resp.P}
			want = []float64{res.I, res.PermMean, res.PermStd, res.Z, res.P}
		} else {
			s = l.tr.begin(i, root, "getisord.perm")
			res, err := geostat.GeneralGOpt(d.Values(), w, geostat.GetisOrdOptions{Perms: perms, Seed: seed, Workers: l.workers()})
			l.tr.end(s)
			if err != nil {
				return err
			}
			got = []float64{resp.G, resp.PermMean, resp.PermStd, resp.Z, resp.P}
			want = []float64{res.G, res.PermMean, res.PermStd, res.Z, res.P}
		}
		return sameBits("statistics", got, want)
	}
	return fmt.Errorf("no direct computation for %s", path)
}

func (l *layers) kplot(i int64, root int, name string, pts []geostat.Point, th []float64, workers int, seed int64) (*geostat.KPlot, error) {
	s := l.tr.begin(i, root, name)
	defer l.tr.end(s)
	return geostat.KFunctionPlot(pts, geostat.KPlotOptions{Thresholds: th, Simulations: statsSims, Workers: workers}, geostat.NewRand(seed))
}

// verify recomputes one sampled op of the untraced run.
func (l *layers) verify(op Op, client int, bodies [][]byte, grid []float64) error {
	if l.cfg.workload == "shard" {
		return l.verifyShard(op.Viewport, grid)
	}
	var upload []byte
	if op.Upload != "" {
		upload = ingestCSV(l.cfg.seed, op.Index)
	}
	return l.replay(op.Index, -1, op, upload, bodies, false)
}

// verifyShard compares a merged sharded raster with a single-node naive
// evaluation of the full dataset.
func (l *layers) verifyShard(vp []float64, grid []float64) error {
	req := shardRequest(vp)
	g, err := geostat.KDVDatasetCtx(context.Background(), l.full, geostat.KDVOptions{
		Kernel: req.Kernel, Grid: req.Grid, Method: geostat.KDVNaive, Workers: l.workers(),
	})
	if err != nil {
		return err
	}
	return sameBits("merged raster", grid, g.Values)
}

// traceShard runs shard op i traced: a direct plan, the coordinator's
// fan-out with every worker request timed, then each worker request
// replayed on the in-process server next to the direct tile evaluation.
func (l *layers) traceShard(i int64, root int, op Op) (float64, int, error) {
	name := shardName(i)
	req := shardRequest(op.Viewport)
	s := l.tr.begin(i, root, "shard.plan")
	_, err := shard.PlanKDV(l.full, name, req)
	l.tr.end(s)
	if err != nil {
		return 0, 0, err
	}
	u0, r0, t0 := l.shardCounters()
	l.rt.capture(true)
	start := time.Now()
	s = l.tr.begin(i, root, "shard.kdv")
	g, err := l.coord.KDV(context.Background(), l.full, name, req)
	l.tr.end(s)
	ms := msSince(start)
	caps := l.rt.capture(false)
	if err != nil {
		return 0, 0, err
	}
	u1, r1, t1 := l.shardCounters()
	l.uploads, l.retries, l.tiles, l.shops = l.uploads+u1-u0, l.retries+r1-r0, l.tiles+t1-t0, l.shops+1
	sort.Slice(caps, func(a, b int) bool { return caps[a].start.Before(caps[b].start) })
	n := 0
	for _, c := range caps {
		l.tr.add(i, s, "http", c.start, c.end)
		n += c.n
	}
	for _, c := range caps {
		if c.method == http.MethodPost {
			if _, err := l.dataCalls(i, root, c.body); err != nil {
				return 0, 0, err
			}
		}
		got, err := l.serveHTTP(i, root, c.method, c.target, c.body)
		if err != nil && c.method == http.MethodGet && strings.HasSuffix(c.target, "/digest") {
			continue // the coordinator's first digest probe of a new tile is a 404
		}
		if err != nil {
			return 0, 0, err
		}
		u, err := url.Parse(c.target)
		if err != nil {
			return 0, 0, err
		}
		if u.Path != "/v1/kdv" {
			continue
		}
		if sha256.Sum256(got) != c.sum {
			return 0, 0, fmt.Errorf("tile %s: in-process response differs from the worker's", c.target)
		}
		q := u.Query()
		d, _, ok := l.inproc.Registry().Get(q.Get("dataset"))
		if !ok {
			return 0, 0, fmt.Errorf("tile dataset %q missing in-process", q.Get("dataset"))
		}
		opt, err := l.kdvOptions(i, root, d, q)
		if err != nil {
			return 0, 0, err
		}
		if _, err := l.kdv(i, root, "kde.eval", d, opt); err != nil {
			return 0, 0, err
		}
		opt.Workers = 1
		if _, err := l.kdv(i, root, "kde.eval_1w", d, opt); err != nil {
			return 0, 0, err
		}
	}
	if verifySampled("shard", l.cfg.seed, i) {
		if err := l.verifyShard(op.Viewport, g.Values); err != nil {
			return 0, 0, err
		}
	}
	return ms, n, nil
}

// layerMetrics derives the per-layer metrics from the spans: per-op
// totals (medians over traced ops) and self times by subtraction. A layer
// the workload's ops never call reports 0.
func (l *layers) layerMetrics() map[string]metric {
	t := l.tr
	ops := t.ops()
	per := func(m map[int64]float64) []float64 {
		out := make([]float64, len(ops))
		for k, op := range ops {
			out[k] = m[op]
		}
		return out
	}
	med := func(name string) float64 { return median(per(t.perOp(name))) }
	// The dataset layer is timed per op where ops upload, else on the
	// setup dataset.
	dataMed := func(name string) float64 {
		if v := med(name); v > 0 {
			return v
		}
		var setup []float64
		for _, s := range t.spans {
			if s.Name == name && s.Op < 0 {
				setup = append(setup, s.EndMS-s.StartMS)
			}
		}
		return median(setup)
	}
	diff := func(a map[int64]float64, subs ...map[int64]float64) float64 {
		v := per(a)
		for _, s := range subs {
			for k, x := range per(s) {
				v[k] -= x
			}
		}
		return median(v)
	}
	// The handler's own work is everything in ServeHTTP that the direct
	// calls do not replicate: parameter parsing, encoding, writing.
	handlerCalls := []string{"dataset.points", "kde.bandwidth", "kde.eval", "kfunc.plot",
		"weights.knn", "weights.rowstd", "moran.perm", "getisord.perm", "dataset.read_csv", "dataset.put"}
	if l.cfg.workload == "shard" {
		handlerCalls = append(handlerCalls, "dataset.digest")
	}
	subs := make([]map[int64]float64, len(handlerCalls))
	for k, n := range handlerCalls {
		subs[k] = t.perOp(n)
	}
	eff := func(serial, par float64) float64 {
		if par == 0 {
			return 0
		}
		return serial / (l.parallelism() * par)
	}
	m := map[string]metric{
		"serve.wire_ms":          {diff(t.perOp("http"), t.perOp("serve.ServeHTTP")), "ms"},
		"serve.handler_self_ms":  {diff(t.perOp("serve.ServeHTTP"), subs...), "ms"},
		"dataset.points_ms":      {med("dataset.points"), "ms"},
		"dataset.read_csv_ms":    {dataMed("dataset.read_csv"), "ms"},
		"dataset.put_ms":         {dataMed("dataset.put"), "ms"},
		"dataset.digest_ms":      {dataMed("dataset.digest"), "ms"},
		"kde.eval_ms":            {med("kde.eval"), "ms"},
		"kde.eval_1w_ms":         {med("kde.eval_1w"), "ms"},
		"kfunc.plot_ms":          {med("kfunc.plot"), "ms"},
		"kfunc.curve_ms":         {med("kfunc.curve"), "ms"},
		"kfunc.pairs":            {median(per(l.pairs)), "count"},
		"weights.knn_ms":         {med("weights.knn"), "ms"},
		"moran.perm_ms":          {med("moran.perm"), "ms"},
		"getisord.perm_ms":       {med("getisord.perm"), "ms"},
		"parallel.kde_eff":       {eff(med("kde.eval_1w"), med("kde.eval")), "fraction"},
		"parallel.kfunc_eff":     {eff(med("kfunc.plot_1w"), med("kfunc.plot")), "fraction"},
		"shard.plan_ms":          {med("shard.plan"), "ms"},
		"shard.kdv_ms":           {med("shard.kdv"), "ms"},
		"shard.tile_eval_max_ms": {0, "ms"},
		"shard.fanout_ms":        {0, "ms"},
		"shard.uploads_per_op":   {0, "count"},
		"shard.retry_frac":       {0, "fraction"},
	}
	if l.cfg.workload == "shard" && l.shops > 0 {
		tileMax := t.maxPerOp("kde.eval")
		m["shard.tile_eval_max_ms"] = metric{median(per(tileMax)), "ms"}
		m["shard.fanout_ms"] = metric{diff(t.perOp("shard.kdv"), t.perOp("shard.plan"), tileMax), "ms"}
		m["shard.uploads_per_op"] = metric{l.uploads / l.shops, "count"}
		if l.tiles+l.retries > 0 {
			m["shard.retry_frac"] = metric{l.retries / (l.tiles + l.retries), "fraction"}
		}
	}
	return m
}

// rasterSum hashes a raster's exact bits.
func rasterSum(vals []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
