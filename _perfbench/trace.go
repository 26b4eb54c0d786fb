package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span kinds. A run span times work the measured run itself did; a replay
// span times a stage call the benchmark repeats after the run to break a run
// span down, so replayed time never adds to the run's own busy time.
const (
	kindRun    = "run"
	kindReplay = "replay"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Op     int64  `json:"op"` // request or job id; -1 when the span has none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; write saves them once, when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records s and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// timed runs fn inside a span and returns the span's id.
func (t *tracer) timed(name, kind string, op int64, parent int, fn func()) int {
	start := t.now()
	fn()
	return t.add(span{Parent: parent, Name: name, Kind: kind, Op: op, Start: start, End: t.now()})
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// setParent links a span recorded before its parent was known.
func (t *tracer) setParent(id, parent int) {
	t.mu.Lock()
	t.spans[id].Parent = parent
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children's intervals cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	return total + curHi - curLo
}

// layerStat accumulates one layer's self time over its operations.
type layerStat struct {
	n     int
	total int64 // ns
}

func (l *layerStat) add(ns int64) {
	l.n++
	l.total += ns
}

// meanMs is the mean self time per operation in milliseconds.
func (l layerStat) meanMs() float64 { return ratio(float64(l.total), float64(l.n)) / 1e6 }
