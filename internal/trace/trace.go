// Package trace holds the one record of a task attempt, Event, and the
// analyses built on it. The in-process runtime (sched.Runtime, through its
// SpanTracer), the graph simulator (sched.Simulate) and the distributed
// workers all emit Events; a Log stores them, encodes them as native JSON
// and renders them for Chrome. This package is the one place a schedule is
// measured: AnalyzeDAG derives work, span, makespan, speedup and
// per-kernel time from any Log, real or simulated, and Gantt draws it —
// how much of each worker's time is spent computing versus idling at
// barriers, and how close a run gets to its DAG-limited speedup. The
// package imports no other exadla package, so every layer can emit its
// records.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Outcome classifies how one task attempt (or a skipped task) ended.
type Outcome uint8

const (
	// OutcomeOK is a successful attempt.
	OutcomeOK Outcome = iota
	// OutcomeRetried is a transiently failed attempt the runtime re-enqueued.
	OutcomeRetried
	// OutcomeFailed is the attempt that made a failure permanent (retry
	// budget exhausted, panic, or a Permanent-wrapped error).
	OutcomeFailed
	// OutcomeCorrected is a retried attempt whose error reported the
	// underlying fault as already corrected in place (ABFT corruption
	// recovery): the retry re-verifies rather than re-computes.
	OutcomeCorrected
	// OutcomeSkipped marks a task that never ran because an upstream
	// failure poisoned it. Skipped events have Attempt 0 and Worker -1.
	OutcomeSkipped
	// OutcomeTimedOut is an attempt the runtime's watchdog abandoned
	// because it overran the task deadline: the executing worker is
	// presumed dead and the task is re-enqueued through the retry path. An
	// attempt whose timeout exhausts the retry budget is reported as
	// OutcomeFailed instead, like any other permanent failure.
	OutcomeTimedOut
)

// String returns the lower-case label used in traces and structured logs.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeRetried:
		return "retried"
	case OutcomeFailed:
		return "failed"
	case OutcomeCorrected:
		return "corrected"
	case OutcomeSkipped:
		return "skipped"
	case OutcomeTimedOut:
		return "timed_out"
	}
	return "unknown"
}

// Event records one executed task attempt (or one skipped task) with full
// DAG context: the task's identity, its dependence edges, when it became
// ready versus when a worker picked it up (queue wait), which attempt it
// was, and how it ended. A retried task has one Event per attempt under
// the same ID; a poisoned dependent has one zero-length OutcomeSkipped
// Event. A distributed attempt adds fetch/compute/commit sub-phase Events,
// and a fault is a zero-length instant.
type Event struct {
	// ID is the task's submission sequence number, shared by every attempt
	// of the same task; -1 for a distributed fault instant that belongs to
	// no task.
	ID int
	// Name is the kernel label.
	Name string
	// Worker is the worker index that ran the attempt (-1 for skipped tasks).
	Worker int
	// Attempt is the 1-based attempt number (0 for skipped tasks).
	Attempt int
	// Deps are the IDs of tasks this one depends on.
	Deps []int
	// Ready is when the attempt joined the ready queue (nanoseconds since
	// the trace epoch); Start-Ready is the queue wait. Zero when unknown.
	Ready int64
	// Start and End are nanoseconds since the trace epoch.
	Start, End int64
	// Outcome classifies how the attempt ended.
	Outcome Outcome
	// Err is the attempt's failure message, if any.
	Err string
	// Proc is the process lane in a merged cluster trace: 0 for in-process
	// (or coordinator) events, worker id + 1 for distributed worker events.
	Proc int
	// Phase refines a distributed task attempt into sub-spans (PhaseFetch,
	// PhaseCompute, PhaseCommit) or marks a fault instant (PhaseEvicted,
	// PhaseReaped, PhaseStale, PhaseChaos). Empty for whole-attempt spans —
	// the only kind the single-process analyses (Gantt, the task accounting
	// of AnalyzeDAG) consume.
	Phase string
	// Bytes is the payload moved during a fetch/commit phase span.
	Bytes int64
	// Tile names the tile a fetch/commit phase span moved, when HasTile.
	Tile    [2]int
	HasTile bool
}

// QueueWait returns Start-Ready, or 0 when the ready time is unknown.
func (e Event) QueueWait() int64 {
	if e.Ready == 0 || e.Ready > e.Start {
		return 0
	}
	return e.Start - e.Ready
}

// Log accumulates events; it implements sched.SpanTracer, so a runtime
// wired with sched.WithTracer(log) records its attempts. Events are
// buffered per worker — the hot path takes only the owning worker's shard
// lock, never a global one — and merged (and sorted) on demand by Events.
type Log struct {
	mu     sync.Mutex // guards shard-slice growth
	shards atomic.Pointer[[]*logShard]
}

type logShard struct {
	mu     sync.Mutex
	events []Event
}

// NewLog returns a trace log holding events, each on its process lane as
// Add places it.
func NewLog(events ...Event) *Log {
	l := &Log{}
	for _, e := range events {
		l.Add(e)
	}
	return l
}

// shard returns the per-worker buffer, growing the shard table
// copy-on-write when a new worker index appears. Skipped-task events
// (worker -1) land in shard 0.
func (l *Log) shard(w int) *logShard {
	if w < 0 {
		w = 0
	}
	if p := l.shards.Load(); p != nil && w < len(*p) {
		return (*p)[w]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var cur []*logShard
	if p := l.shards.Load(); p != nil {
		cur = *p
	}
	if w < len(cur) {
		return cur[w]
	}
	grown := make([]*logShard, w+1)
	copy(grown, cur)
	for i := len(cur); i <= w; i++ {
		grown[i] = &logShard{}
	}
	l.shards.Store(&grown)
	return grown[w]
}

// TaskSpan implements sched.SpanTracer: it appends one task attempt's
// (or one skipped task's) record, on its worker's shard.
func (l *Log) TaskSpan(e Event) { l.shard(e.Worker).add(e) }

// Add appends an arbitrary event — the entry point for merged cluster
// traces and deserialized logs, whose events carry Proc/Phase/Bytes
// context. Events land on the shard of their process lane.
func (l *Log) Add(e Event) { l.shard(e.Proc).add(e) }

func (s *logShard) add(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of the recorded events merged across worker shards
// and sorted by start time (ID, then attempt, break ties).
func (l *Log) Events() []Event {
	var out []Event
	if p := l.shards.Load(); p != nil {
		for _, s := range *p {
			s.mu.Lock()
			out = append(out, s.events...)
			s.mu.Unlock()
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Attempt < b.Attempt
	})
	return out
}

// Reset discards all recorded events.
func (l *Log) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.shards.Load(); p != nil {
		for _, s := range *p {
			s.mu.Lock()
			s.events = s.events[:0]
			s.mu.Unlock()
		}
	}
}

// Gantt renders an ASCII Gantt chart of the trace to w: one row per worker,
// time bucketed into width columns, each cell showing the initial of the
// kernel that occupied most of that bucket ('.' for idle). Skipped-task
// events have no worker lane and are omitted.
func (l *Log) Gantt(w io.Writer, width int) error {
	all := l.Events()
	events := all[:0:0]
	for _, e := range all {
		if e.Attempt > 0 && e.Worker >= 0 && e.Phase == "" {
			events = append(events, e)
		}
	}
	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	if width < 10 {
		width = 10
	}
	first, last := events[0].Start, events[0].End
	maxWorker := 0
	for _, e := range events {
		if e.Start < first {
			first = e.Start
		}
		if e.End > last {
			last = e.End
		}
		if e.Worker > maxWorker {
			maxWorker = e.Worker
		}
	}
	span := last - first
	if span <= 0 {
		span = 1
	}
	rows := make([][]byte, maxWorker+1)
	occupancy := make([][]int64, maxWorker+1) // ns of busy time per bucket
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
		occupancy[i] = make([]int64, width)
	}
	bucketNS := span / int64(width)
	if bucketNS == 0 {
		bucketNS = 1
	}
	for _, e := range events {
		b0 := int((e.Start - first) / bucketNS)
		b1 := int((e.End - first) / bucketNS)
		if b1 >= width {
			b1 = width - 1
		}
		initial := byte('?')
		if len(e.Name) > 0 {
			initial = e.Name[0]
		}
		for b := b0; b <= b1; b++ {
			lo := first + int64(b)*bucketNS
			hi := lo + bucketNS
			s, t := e.Start, e.End
			if s < lo {
				s = lo
			}
			if t > hi {
				t = hi
			}
			if d := t - s; d > occupancy[e.Worker][b] {
				occupancy[e.Worker][b] = d
				rows[e.Worker][b] = initial
			}
		}
	}
	for i, row := range rows {
		if _, err := fmt.Fprintf(w, "w%-3d |%s|\n", i, row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "      %s\n", legend(events))
	return err
}

func legend(events []Event) string {
	seen := map[string]bool{}
	var names []string
	for _, e := range events {
		if !seen[e.Name] {
			seen[e.Name] = true
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("legend:")
	for _, n := range names {
		initial := "?"
		if len(n) > 0 {
			initial = string(n[0])
		}
		fmt.Fprintf(&b, " %s=%s", initial, n)
	}
	return b.String()
}
