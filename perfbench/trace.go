package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one op share Op;
// Parent is the ID of the enclosing span, or -1 for an op's root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int64   `json:"op"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e6 }

func (t *tracer) begin(op int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := t.ms(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, StartMS: now, EndMS: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.ms(time.Now())
	t.mu.Lock()
	t.spans[id].EndMS = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the shard
// transport times each worker request itself).
func (t *tracer) add(op int64, parent int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, StartMS: t.ms(start), EndMS: t.ms(end)})
	t.mu.Unlock()
}

// perOp sums the durations of every span named name, per op.
func (t *tracer) perOp(name string) map[int64]float64 {
	out := map[int64]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Op] += s.EndMS - s.StartMS
		}
	}
	return out
}

// maxPerOp is the longest span named name, per op.
func (t *tracer) maxPerOp(name string) map[int64]float64 {
	out := map[int64]float64{}
	for _, s := range t.spans {
		if d := s.EndMS - s.StartMS; s.Name == name && d > out[s.Op] {
			out[s.Op] = d
		}
	}
	return out
}

// ops lists the op IDs that have a root span.
func (t *tracer) ops() []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.Parent == -1 && s.Name == "op" {
			out = append(out, s.Op)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantile is the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
