// Command perfbench is geostat's outside-in benchmark. It boots fresh
// geostatd processes at their default flags, uploads datasets generated
// from --seed through the public HTTP API, drives one closed-loop
// workload with two clients (one connection each) for --seconds, checks
// every output and prints the end-to-end metrics. With --trace 1 it
// replays the same op sequence with one client and prints the per-layer
// metrics instead, timed around calls into each layer (layers.go).
//
// Run it through run.sh, which builds geostatd and this command from the
// checkout first:
//
//	bash perfbench/run.sh --workload heatmap --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for why each
// workload and metric exists.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	clients   = 2
	setupReps = 5 // setups per run; setup_s is their median
	maxVerify = 6 // sampled ops recomputed in-process per run
	failedMS  = 1e9
)

type config struct {
	workload      string
	seed          int64
	seconds       int
	trace         bool
	serverWorkers int
	maxInFlight   int
	bin, out      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		cfg      config
		trace    int
		dumpPlan int
	)
	flag.StringVar(&cfg.workload, "workload", "heatmap", "workload: "+strings.Join(workloads, "|"))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; datasets and the op plan are a pure function of (workload, seed)")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced single-client replay printing the per-layer metrics")
	flag.IntVar(&cfg.serverWorkers, "server-workers", 0, "pass -workers N to geostatd (0 keeps its default); for the sensitivity check")
	flag.IntVar(&cfg.maxInFlight, "server-max-inflight", 0, "pass -max-inflight N to geostatd (0 keeps its default); for the sensitivity check")
	flag.StringVar(&cfg.bin, "geostatd", ".bench_build/geostatd", "geostatd binary")
	flag.StringVar(&cfg.out, "out", ".bench_build/out", "directory for server logs, traces and run records")
	flag.IntVar(&dumpPlan, "dump-plan", 0, "print the first N ops of the plan as JSON lines and exit")
	flag.Parse()
	cfg.trace = trace == 1
	if workloadKey(cfg.workload) == 0 {
		fatalf("unknown workload %q", cfg.workload)
	}
	if dumpPlan > 0 {
		enc := json.NewEncoder(os.Stdout)
		enc.SetEscapeHTML(false)
		for i := int64(0); i < int64(dumpPlan); i++ {
			if err := enc.Encode(planOp(cfg.workload, cfg.seed, i, int(i%clients))); err != nil {
				fatalf("%v", err)
			}
		}
		return
	}
	if cfg.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatalf("%v", err)
	}
	var (
		res *result
		err error
	)
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runTimed(cfg)
	}
	if err != nil {
		fatalf("%v", err)
	}
	// The run record: provenance plus every metric with its unit, keys
	// sorted, one per line.
	record, err := json.MarshalIndent(map[string]any{"provenance": provenance(cfg), "result": res}, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s\n", record)
	if err = os.WriteFile(filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)), record, 0o644); err != nil {
		fatalf("%v", err)
	}
	last, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(last))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// provenance records what a result was measured on.
func provenance(cfg config) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"server_workers": cfg.serverWorkers, "server_max_inflight": cfg.maxInFlight, "clients": clients,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu_model": cpu,
		"go_version": runtime.Version(), "commit": os.Getenv("PERFBENCH_COMMIT"),
	}
}

// env is one set-up instance of a workload: its geostatd processes, the
// clients that drive them and the Go-API side (layers.go).
type env struct {
	cfg     config
	servers []*server
	http    []*http.Client
	lay     *layers

	mu      sync.Mutex
	uploads map[[32]byte]bool
}

func (e *env) stop() {
	for _, s := range e.servers {
		s.stop()
	}
	if e.lay != nil {
		e.lay.close()
	}
}

// setup boots the workload's servers, uploads its dataset and runs the
// warm-up ops, which come from their own (negative) op indices so no
// timed request repeats one of them.
func setup(cfg config, csv []byte, nclients int, rep int) (*env, error) {
	e := &env{cfg: cfg, uploads: map[[32]byte]bool{}}
	nservers := 1
	if cfg.workload == "shard" {
		nservers = 2
	}
	var extra []string
	if cfg.serverWorkers != 0 {
		extra = append(extra, "-workers", fmt.Sprint(cfg.serverWorkers))
	}
	if cfg.maxInFlight != 0 {
		extra = append(extra, "-max-inflight", fmt.Sprint(cfg.maxInFlight))
	}
	for i := 0; i < nservers; i++ {
		log := filepath.Join(cfg.out, fmt.Sprintf("geostatd-%s-%d-%d.log", cfg.workload, rep, i))
		s, err := startServer(cfg.bin, log, extra)
		if err != nil {
			e.stop()
			return nil, err
		}
		e.servers = append(e.servers, s)
	}
	for i := 0; i < nclients; i++ {
		e.http = append(e.http, httpClient())
	}
	e.lay = newLayers(cfg, csv)
	switch cfg.workload {
	case "heatmap", "stats":
		if err := e.upload(e.http[0], "/v1/datasets/"+setupName(cfg.workload), csv); err != nil {
			e.stop()
			return nil, err
		}
	case "shard":
		urls := make([]string, len(e.servers))
		for i, s := range e.servers {
			urls[i] = s.url
		}
		if err := e.lay.startShard(urls); err != nil {
			e.stop()
			return nil, err
		}
	}
	errs := make([]error, nclients)
	fanOut(nclients, func(c int) {
		for j := 0; j < warmupPerCli; j++ {
			r := e.runOp(c, -int64(1+c*warmupPerCli+j), false, nil, -1)
			if !r.ok {
				errs[c] = fmt.Errorf("warm-up op failed: %s", r.err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			e.stop()
			return nil, err
		}
	}
	return e, nil
}

// upload POSTs a dataset body, refusing one this server set has already
// received: a repeated upload could let a later change share work across
// requests and pass it off as a compute gain.
func (e *env) upload(c *http.Client, path string, body []byte) error {
	r, err := do(context.Background(), c, http.MethodPost, e.servers[0].url+path, body)
	if err != nil {
		return err
	}
	if !r.ok(false) {
		return fmt.Errorf("upload %s: status %d: %s", path, r.status, r.body)
	}
	return e.noteUpload(body)
}

func (e *env) noteUpload(body []byte) error {
	k := sha256.Sum256(body)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.uploads[k] {
		return fmt.Errorf("sharing guard: upload body repeated")
	}
	e.uploads[k] = true
	return nil
}

// opResult is one completed op of the timed window.
type opResult struct {
	index  int64
	client int
	ms     float64
	ok     bool
	err    string
	bytes  int
	sums   []string  // SHA-256 of every response (shard: of the merged raster)
	bodies [][]byte  // tool response bodies, kept for sampled ops only
	grid   []float64 // shard merged raster, kept for sampled ops only
}

// runOp executes op i on client c. keep retains what verification needs;
// a non-nil tr records a span around each HTTP call under root.
func (e *env) runOp(c int, i int64, keep bool, tr *tracer, root int) opResult {
	cfg := e.cfg
	res := opResult{index: i, client: c, ok: true}
	op := planOp(cfg.workload, cfg.seed, i, c)
	if cfg.workload == "shard" {
		start := time.Now()
		grid, err := e.lay.shardKDV(context.Background(), i, op.Viewport)
		res.ms = msSince(start)
		if err != nil {
			res.ok, res.err = false, err.Error()
			return res
		}
		res.sums = []string{rasterSum(grid)}
		if keep {
			res.grid = grid
		}
		return res
	}
	var body []byte
	if op.Upload != "" {
		body = ingestCSV(cfg.seed, i)
		if err := e.noteUpload(body); err != nil {
			res.ok, res.err = false, err.Error()
			return res
		}
	}
	ctx := context.Background()
	cl := e.http[c]
	base := e.servers[0].url
	start := time.Now()
	call := func(method, path string, body []byte) (reply, error) {
		s := tr.begin(i, root, "http")
		defer tr.end(s)
		return do(ctx, cl, method, base+path, body)
	}
	if body != nil {
		r, err := call(http.MethodPost, op.Upload, body)
		if err != nil || !r.ok(false) {
			res.ok, res.err = false, fmt.Sprintf("upload: %v status %d", err, r.status)
		}
		res.bytes += r.n
		res.sums = append(res.sums, fmt.Sprintf("%x", r.sum))
	}
	for _, path := range op.Requests {
		if !res.ok {
			break
		}
		r, err := call(http.MethodGet, path, nil)
		res.bytes += r.n
		res.sums = append(res.sums, fmt.Sprintf("%x", r.sum))
		if err != nil || !r.ok(true) {
			res.ok, res.err = false, fmt.Sprintf("%s: %v status %d cache %q", path, err, r.status, r.cache)
			break
		}
		if keep {
			res.bodies = append(res.bodies, r.body)
		}
	}
	res.ms = msSince(start)
	return res
}

// writeHashes records the hash of every response of the run, one op per
// line in op order, so runs of two commits at one seed can be diffed.
func writeHashes(cfg config, results []opResult) error {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "%d %s\n", r.index, strings.Join(r.sums, " "))
	}
	return os.WriteFile(filepath.Join(cfg.out, fmt.Sprintf("hashes-%s-seed%d.txt", cfg.workload, cfg.seed)), []byte(b.String()), 0o644)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// serverState reads each server's /metrics and CPU time.
func (e *env) serverState() ([]promSample, []float64, error) {
	samples := make([]promSample, len(e.servers))
	cpu := make([]float64, len(e.servers))
	c := httpClient()
	defer c.CloseIdleConnections()
	for i, s := range e.servers {
		var err error
		if samples[i], err = scrape(c, s.url); err != nil {
			return nil, nil, err
		}
		if cpu[i], err = cpuMS(s.pid()); err != nil {
			return nil, nil, err
		}
	}
	return samples, cpu, nil
}

// runTimed is the untraced end-to-end run.
func runTimed(cfg config) (*result, error) {
	var (
		setups []float64
		e      *env
	)
	csv := datasetCSV(cfg.workload, cfg.seed)
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		var err error
		if e, err = setup(cfg, csv, clients, rep); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < setupReps-1 {
			e.stop()
		}
	}
	defer e.stop()

	before, cpu0, err := e.serverState()
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	perClient := make([][]opResult, clients)
	t0 := time.Now()
	deadline := t0.Add(time.Duration(cfg.seconds) * time.Second)
	fanOut(clients, func(c int) {
		for time.Now().Before(deadline) {
			i := next.Add(1) - 1
			perClient[c] = append(perClient[c], e.runOp(c, i, verifySampled(cfg.workload, cfg.seed, i), nil, -1))
		}
	})
	elapsed := time.Since(t0).Seconds()
	var results []opResult
	for _, r := range perClient {
		results = append(results, r...)
	}
	after, cpu1, err := e.serverState()
	if err != nil {
		return nil, err
	}
	var rss float64
	for _, s := range e.servers {
		v, err := peakRSSMB(s.pid())
		if err != nil {
			return nil, err
		}
		rss += v
	}

	// Verification runs after the timed window.
	sort.Slice(results, func(i, j int) bool { return results[i].index < results[j].index })
	correct := true
	verified := 0
	for k := range results {
		r := &results[k]
		if !r.ok {
			correct = false
			fmt.Fprintf(os.Stderr, "op %d failed: %s\n", r.index, r.err)
			continue
		}
		if verified >= maxVerify || !verifySampled(cfg.workload, cfg.seed, r.index) {
			continue
		}
		verified++
		if err := e.lay.verify(planOp(cfg.workload, cfg.seed, r.index, r.client), r.client, r.bodies, r.grid); err != nil {
			r.ok, r.err, correct = false, err.Error(), false
			fmt.Fprintf(os.Stderr, "op %d verification: %v\n", r.index, err)
		}
	}
	if verified == 0 {
		return nil, fmt.Errorf("no op of the verification sample completed; run longer")
	}
	counts := countsDelta(before, after)
	if err := counts.guard(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		correct = false
	}
	if err := writeHashes(cfg, results); err != nil {
		return nil, err
	}

	lat := make([]float64, len(results))
	okOps := 0
	for k, r := range results {
		lat[k] = r.ms
		if r.ok {
			okOps++
		} else {
			lat[k] = failedMS // a failed op misses every latency limit
		}
	}
	var cpu float64
	for i := range cpu0 {
		cpu += cpu1[i] - cpu0[i]
	}
	n := float64(len(results))
	fmt.Printf("workload %s: %d ops in %.2f s (%d verified in-process), latency samples %d\n",
		cfg.workload, len(results), elapsed, verified, len(lat))
	if len(results) < 200 {
		fmt.Fprintf(os.Stderr, "warning: %d ops; latency_p95_ms needs at least 200\n", len(results))
	}
	return &result{
		Correct:   correct,
		Attempted: len(results),
		Failed:    len(results) - okOps,
		Metrics: map[string]metric{
			"throughput_ops_s":     {float64(okOps) / elapsed, "1/s"},
			"latency_p50_ms":       {median(lat), "ms"},
			"latency_p95_ms":       {quantile(lat, 0.95), "ms"},
			"ok_frac":              {float64(okOps) / n, "fraction"},
			"setup_s":              {median(setups), "s"},
			"server_cpu_ms_per_op": {cpu / n, "ms"},
			"server_peak_rss_mb":   {rss, "MiB"},
		},
	}, nil
}

// runTraced replays the op sequence with one client. Even ops run over
// HTTP only; odd ops are traced: their HTTP call, the same request on an
// in-process serve.Server and the direct layer calls are each a span. The
// two halves' HTTP latencies give the tracing overhead.
func runTraced(cfg config) (*result, error) {
	e, err := setup(cfg, datasetCSV(cfg.workload, cfg.seed), 1, 0)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	tr := newTracer()
	e.lay.tr = tr
	if err = e.lay.traceSetupData(); err != nil {
		return nil, err
	}
	before, cpu0, err := e.serverState()
	if err != nil {
		return nil, err
	}
	var (
		plain, traced []float64
		attempted     int
		failed        int
		respBytes     []float64
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := int64(0); time.Now().Before(deadline) || i < 4; i++ {
		attempted++
		if i%2 == 0 {
			r := e.runOp(0, i, false, nil, -1)
			if !r.ok {
				failed++
				fmt.Fprintf(os.Stderr, "op %d failed: %s\n", i, r.err)
				continue
			}
			plain = append(plain, r.ms)
			continue
		}
		ms, n, terr := e.traceOp(tr, i)
		if terr != nil {
			failed++
			fmt.Fprintf(os.Stderr, "traced op %d failed: %v\n", i, terr)
			continue
		}
		traced = append(traced, ms)
		respBytes = append(respBytes, float64(n))
	}
	after, cpu1, err := e.serverState()
	if err != nil {
		return nil, err
	}
	correct := failed == 0
	counts := countsDelta(before, after)
	if counts.requests == 0 {
		return nil, fmt.Errorf("no tool requests counted; the ratios below are undefined")
	}
	if err = counts.guard(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		correct = false
	}
	if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
		return nil, err
	}
	m := e.lay.layerMetrics()
	m["serve.resp_bytes_per_op"] = metric{median(respBytes), "bytes"}
	m["serve.cache_hit_frac"] = metric{float64(counts.hits) / float64(counts.requests), "fraction"}
	m["serve.computes_per_request"] = metric{float64(counts.computes) / float64(counts.requests), "ratio"}
	m["serve.shed_per_op"] = metric{float64(counts.shed) / float64(attempted), "count"}
	maxCPU, sumCPU := 0.0, 0.0
	for i := range cpu0 {
		d := cpu1[i] - cpu0[i]
		maxCPU = math.Max(maxCPU, d)
		sumCPU += d
	}
	skew := 0.0
	if sumCPU > 0 {
		skew = maxCPU / (sumCPU / float64(len(cpu0)))
	}
	m["shard.worker_cpu_skew"] = metric{skew, "ratio"}
	m["trace.untraced_p50_ms"] = metric{median(plain), "ms"}
	m["trace.traced_p50_ms"] = metric{median(traced), "ms"}
	m["trace.overhead_frac"] = metric{median(traced)/median(plain) - 1, "fraction"}
	fmt.Printf("workload %s traced: %d ops (%d traced, %d untraced)\n", cfg.workload, attempted, len(traced), len(plain))
	return &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// traceOp runs op i traced and returns its latency and response bytes.
func (e *env) traceOp(tr *tracer, i int64) (float64, int, error) {
	cfg := e.cfg
	op := planOp(cfg.workload, cfg.seed, i, 0)
	root := tr.begin(i, -1, "op")
	defer tr.end(root)
	if cfg.workload == "shard" {
		return e.lay.traceShard(i, root, op)
	}
	r := e.runOp(0, i, true, tr, root)
	if !r.ok {
		return 0, 0, errors.New(r.err)
	}
	var upload []byte
	if op.Upload != "" {
		upload = ingestCSV(cfg.seed, i)
	}
	return r.ms, r.bytes, e.lay.replay(i, root, op, upload, r.bodies, true)
}
