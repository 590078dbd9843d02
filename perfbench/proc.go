package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one geostatd process booted by the benchmark.
type server struct {
	cmd *exec.Cmd
	url string
}

// startServer launches geostatd on a free loopback port with its default
// flags plus extra, and waits until /healthz answers.
func startServer(bin, logPath string, extra []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start geostatd: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("geostatd at %s not ready after 20s (log %s)", addr, logPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM, escalates to SIGKILL after 5 s, and returns once
// the process has exited.
func (s *server) stop() {
	kill := time.AfterFunc(5*time.Second, func() { _ = s.cmd.Process.Kill() })
	defer kill.Stop()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	_ = s.cmd.Wait()                          // the exit status of a stopped server carries nothing
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// cpuMS returns the process's user+system CPU time from /proc/<pid>/stat.
func cpuMS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in USER_HZ (100/s) ticks.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) * 10, nil
}

// peakRSSMB returns VmHWM from /proc/<pid>/status in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// promSample is one scrape of a server's /metrics, summed per family
// (labels dropped) except for the error kinds the shed count needs.
type promSample map[string]float64

func scrape(c *http.Client, base string) (promSample, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(body), nil
}

func parseProm(body []byte) promSample {
	out := promSample{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if strings.HasPrefix(name, "geostatd_errors_total{") {
			out[name] += v
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// serveCounts is the sharing guard's view of a scrape delta. The
// counters are integers; Prometheus text carries them as floats.
type serveCounts struct {
	requests, computes, hits, shed int64
}

func countsDelta(before, after []promSample) serveCounts {
	var c serveCounts
	for i := range before {
		d := func(k string) int64 { return int64(math.Round(after[i][k] - before[i][k])) }
		c.requests += d("geostatd_requests_total")
		c.computes += d("serve_compute_total")
		c.hits += d("geostatd_cache_hits_total")
		c.shed += d(`geostatd_errors_total{kind="overload"}`) + d(`geostatd_errors_total{kind="timeout"}`)
	}
	return c
}

// guard checks that no response was shared: every tool request ran its own
// computation and none was served from the result cache.
func (c serveCounts) guard() error {
	if c.requests == 0 {
		return fmt.Errorf("sharing guard: no tool requests counted")
	}
	if c.hits != 0 {
		return fmt.Errorf("sharing guard: %d result-cache hits", c.hits)
	}
	if c.computes != c.requests {
		return fmt.Errorf("sharing guard: %d computes for %d requests", c.computes, c.requests)
	}
	return nil
}

// httpClient is one benchmark client: a single keep-alive connection.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// reply is what the benchmark keeps of one HTTP response.
type reply struct {
	status int
	cache  string
	n      int
	sum    [32]byte
	body   []byte
}

func (r reply) ok(tool bool) bool {
	return r.status/100 == 2 && (!tool || r.cache == "miss")
}

func do(ctx context.Context, c *http.Client, method, url string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{}, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), n: len(b), sum: sha256.Sum256(b), body: b}, nil
}
