package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent is the id of the span that caused this one (0 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	// N is a count the layer did during the span (edges built, bytes
	// written, messages sent), 0 when none applies.
	N int64 `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(op int64, parent int32, name string) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return int32(len(t.spans))
}

// end closes span id, recording count n.
func (t *tracer) end(id int32, n int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
}

// record adds a closed span of known duration d ending now, for a cost the
// caller measured itself (one the program reports, or a difference of two
// timed calls).
func (t *tracer) record(op int64, parent int32, name string, d time.Duration, n int64) {
	if t == nil {
		return
	}
	id := t.begin(op, parent, name)
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Start, s.N = s.Start, s.Start-d.Nanoseconds(), n
	t.mu.Unlock()
}

// stat summarises the closed spans of one name.
type stat struct {
	count      int
	medianMS   float64 // median duration
	totalMS    float64 // summed duration
	selfMS     float64 // summed self time: duration minus children
	totalCount int64   // summed N
}

// stats folds the spans by name. Self time is a span's duration minus the
// part of it its child spans cover.
func (t *tracer) stats() map[string]stat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	out := map[string]stat{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		d := float64(s.End-s.Start) / 1e6
		st := out[s.Name]
		st.count++
		st.totalMS += d
		st.selfMS += d - covered(children[s.ID], s.Start, s.End)
		st.totalCount += s.N
		out[s.Name] = st
		durs[s.Name] = append(durs[s.Name], d)
	}
	for name, d := range durs {
		st := out[name]
		st.medianMS = median(d)
		out[name] = st
	}
	return out
}

// covered returns how many milliseconds of [start, end] the child spans
// cover, counting overlapping children once.
func covered(kids []span, start, end int64) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64 = 0, -1, -1
	for _, k := range kids {
		s, e := max(k.Start, start), min(k.End, end)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	total += curE - curS
	return float64(total) / 1e6
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
