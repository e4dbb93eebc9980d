package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Spans of one closed-loop operation share Op; Parent is the
// enclosing span (0 for an operation's root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths pay one nil check per span.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanRef is an open span.
type spanRef struct {
	r  *recorder
	id int
	op int
}

// op opens the root span of a new operation, in the "bench" layer.
func (r *recorder) op(name string) *spanRef {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.open(0, r.ops, "bench", name, time.Now())
}

// open appends a span; the caller holds mu.
func (r *recorder) open(parent, op int, layer, name string, start time.Time) *spanRef {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: op,
		Layer: layer, Name: name, Start: start.Sub(r.epoch).Seconds(), End: -1,
	})
	return &spanRef{r: r, id: len(r.spans), op: op}
}

// child opens a span for a call into layer inside s.
func (s *spanRef) child(layer, name string) *spanRef {
	if s == nil {
		return nil
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	return s.r.open(s.id, s.op, layer, name, time.Now())
}

// closed adds a finished child span with explicit bounds (planner
// stages, which the benchmark learns of at their boundaries).
func (s *spanRef) closed(layer, name string, start, end time.Time) {
	if s == nil {
		return
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	c := s.r.open(s.id, s.op, layer, name, start)
	s.r.spans[c.id-1].End = end.Sub(s.r.epoch).Seconds()
}

// end closes s.
func (s *spanRef) end() {
	if s == nil {
		return
	}
	now := time.Now()
	s.r.mu.Lock()
	s.r.spans[s.id-1].End = now.Sub(s.r.epoch).Seconds()
	s.r.mu.Unlock()
}

// selfTime sums, per layer, each span's duration minus the time its
// child spans cover.
func (r *recorder) selfTime() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	childSec := make([]float64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent > 0 && s.End >= 0 {
			childSec[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		self[s.Layer] += max(0, s.End-s.Start-childSec[s.ID])
	}
	return self
}

// writeTrace writes the traced run's spans, stamped with the run's
// environment, to dir/<workload>-s<seed>.json.
func (b *bench) writeTrace(dir string) error {
	if b.trace == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b.trace.mu.Lock()
	raw, err := json.Marshal(struct {
		Env   envStamp `json:"env"`
		Spans []span   `json:"spans"`
	}{b.env, b.trace.spans})
	b.trace.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-s%d.json", b.cfg.workload, b.cfg.seed)), raw, 0o644)
}
