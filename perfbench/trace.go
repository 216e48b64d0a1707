package main

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one traced call: the benchmark records it around each call
// it makes into a layer. Spans of one request (a service job, or one
// design's optimizer calls) share Req.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Req    string  `json:"req,omitempty"`
	Start  float64 `json:"start_s"` // since the tracer started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced passes pay one nil check per
// call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent int, name, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"` // total minus the time its children cover
}

// summarize aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals clipped to it.
func summarize(spans []span) []spanStat {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*spanStat)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - covered(s, children[s.ID])
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of the children's intervals
// inside parent.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// obs.Default is process-global: a delta read while two workloads run
// would mix their work. counterWindow therefore admits one open window
// per process, and a second open fails instead of silently sharing.
var (
	windowMu   sync.Mutex
	windowOpen bool
)

var errWindowOpen = errors.New("perfbench: a counter window is already open; obs.Default counters cannot be split between concurrent workloads")

// counterWindow reads obs.Default before and after one workload's
// measured passes.
type counterWindow struct {
	before map[string]float64
	closed bool
}

func openWindow() (*counterWindow, error) {
	windowMu.Lock()
	defer windowMu.Unlock()
	if windowOpen {
		return nil, errWindowOpen
	}
	windowOpen = true
	return &counterWindow{before: obs.Default.Values()}, nil
}

// close returns the counter deltas since open and frees the window.
func (w *counterWindow) close() counters {
	after := obs.Default.Values()
	windowMu.Lock()
	defer windowMu.Unlock()
	if !w.closed {
		w.closed = true
		windowOpen = false
	}
	d := make(counters, len(after))
	for k, v := range after {
		d[k] = v - w.before[k]
	}
	return d
}

// counters maps obs sample keys (name[suffix][{labels}]) to deltas.
type counters map[string]float64

// sum adds every series of the family name, labelled or not. A family
// the program no longer registers reads 0.
func (c counters) sum(name string) float64 {
	t := 0.0
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}
