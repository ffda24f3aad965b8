package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one request (or
// cell, or artifact group) share a TraceID; ParentID 0 marks the root.
type Span struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps a pass's spans in memory until the pass ends. A disabled
// recorder records nothing, so the same code measures tracing's overhead.
type recorder struct {
	on    bool
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

// newRecorder returns a recorder with room for capacity spans, so
// recording does not copy the span slice as it grows.
func newRecorder(on bool, capacity int) *recorder {
	r := &recorder{on: on, t0: time.Now()}
	if on {
		r.spans = make([]Span, 0, capacity)
	}
	return r
}

// active is a started span.
type active struct {
	r    *recorder
	span Span
}

// begin starts a span; parent is the enclosing span, or the zero active for
// a new trace.
func (r *recorder) begin(parent active, name string) active {
	if !r.on {
		return active{}
	}
	id := r.ids.Add(1)
	s := Span{TraceID: parent.span.TraceID, SpanID: id, ParentID: parent.span.SpanID, Name: name}
	if s.TraceID == 0 {
		s.TraceID = id
	}
	s.StartNS = int64(time.Since(r.t0))
	return active{r: r, span: s}
}

// end finishes the span and keeps it.
func (o active) end() {
	if o.r == nil {
		return
	}
	o.span.EndNS = int64(time.Since(o.r.t0))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.span)
	o.r.mu.Unlock()
}

// summary is one span name's totals: how many, the busy time (the sum of
// the spans' durations), and the distribution of self time (a span's
// duration minus the part of it its children cover).
type summary struct {
	Name   string
	Count  int
	BusyNS int64
	Self   []float64 // per span, microseconds, sorted
	Dur    []float64 // per span, microseconds, sorted
}

// summarize groups spans by name.
func summarize(spans []Span) map[string]*summary {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	out := make(map[string]*summary)
	for _, s := range spans {
		sum := out[s.Name]
		if sum == nil {
			sum = &summary{Name: s.Name}
			out[s.Name] = sum
		}
		dur := s.EndNS - s.StartNS
		sum.Count++
		sum.BusyNS += dur
		sum.Dur = append(sum.Dur, float64(dur)/1e3)
		sum.Self = append(sum.Self, float64(dur-covered(s, children[s.SpanID]))/1e3)
	}
	for _, sum := range out {
		sort.Float64s(sum.Self)
		sort.Float64s(sum.Dur)
	}
	return out
}

// covered is how much of parent's interval its children cover, counting
// overlapping children once.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}
