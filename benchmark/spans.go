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

// span is one timed call the benchmark made into a layer. Spans of one
// operation share op; parent is the index of the span that caused this one,
// or -1 for a root.
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory and writes them once, at the end. A nil
// recorder records nothing, which is how the untraced run pays nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: now, end: -1})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere (a job's queue
// wait and run time come from the server's own status, not from a clock the
// benchmark held).
func (r *recorder) add(name string, op, parent int, start, end time.Duration) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: start, end: end})
	return len(r.spans) - 1
}

// since converts a wall-clock instant to the recorder's time base.
func (r *recorder) since(t time.Time) time.Duration {
	if r == nil {
		return 0
	}
	return t.Sub(r.epoch)
}

// selfTimes returns, per span name, the summed duration and the summed self
// time: a span's duration minus the part of it its children cover.
func (r *recorder) selfTimes() (total, self map[string]time.Duration) {
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]int{}
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for i, s := range r.spans {
		if s.end < s.start {
			continue // never closed
		}
		d := s.end - s.start
		total[s.name] += d
		// Union of the children's intervals, clipped to the parent.
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].start < r.spans[kids[b]].start })
		var covered time.Duration
		cursor := s.start
		for _, k := range kids {
			ks, ke := r.spans[k].start, r.spans[k].end
			if ks < cursor {
				ks = cursor
			}
			if ke > s.end {
				ke = s.end
			}
			if ke > ks {
				covered += ke - ks
				cursor = ke
			}
		}
		self[s.name] += d - covered
	}
	return
}

// share returns the summed duration of the spans called name as a share of
// the summed duration of the spans called of (0 when of never ran).
func share(total map[string]time.Duration, name, of string) float64 {
	if total[of] == 0 {
		return 0
	}
	return float64(total[name]) / float64(total[of])
}

// writeChrome writes the spans as Chrome trace-event JSON (one "X" event
// per span; tid is the operation, so one operation reads as one lane).
func (r *recorder) writeChrome(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]ev, 0, len(r.spans))
	for i, s := range r.spans {
		if s.end < s.start {
			continue
		}
		evs = append(evs, ev{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.op, Args: map[string]int{"span": i, "parent": s.parent}})
	}
	r.mu.Unlock()
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace out %s: %w", path, err)
	}
	return nil
}
