package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one recorded interval. Op groups the spans of one workload
// operation (0 for set-up and explain spans); Probe marks a replay of
// an op's inputs through one layer, which never blocks the op itself.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Probe  bool   `json:"probe,omitempty"`
	Bytes  int    `json:"bytes,omitempty"` // input size of a per-byte probe
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A nil tracer records nothing, so the
// untraced path pays one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (1-based; 0 when not tracing).
func (t *tracer) begin(name string, parent int, op int64, probe bool) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.t0)), Probe: probe})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return s.dur()
}

// setBytes records the input size a probe span processed.
func (t *tracer) setBytes(id, n int) {
	if t != nil && id > 0 {
		t.spans[id-1].Bytes = n
	}
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
	Probe bool
	Setup bool // recorded while loading, outside any op
}

// selfTimes returns per-name totals, where a span's self time is its
// duration minus the part its direct children cover (children of one
// span run one after another on the client goroutine).
func (t *tracer) selfTimes() []spanStat {
	if t == nil {
		return nil
	}
	child := make([]time.Duration, len(t.spans)+1)
	for i := range t.spans {
		if p := t.spans[i].Parent; p > 0 {
			child[p] += t.spans[i].dur()
		}
	}
	byName := map[string]*spanStat{}
	for i := range t.spans {
		s := &t.spans[i]
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name, Probe: s.Probe, Setup: !s.Probe && s.Op == 0}
			byName[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		self := s.dur() - child[s.ID]
		if self < 0 {
			self = 0
		}
		st.Self += self
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// meanMicros returns the mean duration in µs of the spans named name.
func (t *tracer) meanMicros(name string) float64 {
	var n int
	var sum time.Duration
	if t != nil {
		for i := range t.spans {
			if t.spans[i].Name == name {
				n++
				sum += t.spans[i].dur()
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum.Nanoseconds()) / 1e3 / float64(n)
}

// total returns the summed duration of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	if t != nil {
		for i := range t.spans {
			if t.spans[i].Name == name {
				sum += t.spans[i].dur()
			}
		}
	}
	return sum
}

// microsPerKB returns the summed duration of the spans named name in
// µs per KiB of their recorded input.
func (t *tracer) microsPerKB(name string) float64 {
	var sum time.Duration
	var bytes int
	if t != nil {
		for i := range t.spans {
			if t.spans[i].Name == name {
				sum += t.spans[i].dur()
				bytes += t.spans[i].Bytes
			}
		}
	}
	if bytes == 0 {
		return 0
	}
	return float64(sum.Nanoseconds()) / 1e3 / (float64(bytes) / 1024)
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
