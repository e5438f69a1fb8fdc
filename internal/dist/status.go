package dist

import (
	"sort"
	"time"

	"exadla/internal/trace"
)

// This file is the coordinator's cluster-observability surface: the merged
// multi-process trace (worker span shards aligned onto the coordinator's
// clock), the fault-instant hook (Options.Events), and the live status
// snapshot the obs server's /dist endpoint serves.

// Eviction is one worker eviction, as its fault instant records it.
type Eviction struct {
	Worker int    `json:"worker"`
	Reason string `json:"reason"`
	AtMS   int64  `json:"at_ms"` // milliseconds since the coordinator epoch
}

// WorkerInfo is the live view of one registered worker.
type WorkerInfo struct {
	ID           int   `json:"id"`
	Slot         int   `json:"slot"`
	Live         bool  `json:"live"`
	Evicted      bool  `json:"evicted"`
	Departed     bool  `json:"departed"`
	LastBeatMS   int64 `json:"last_beat_age_ms"`
	ClockOffsetN int64 `json:"clock_offset_ns"`
	ClockRTTNS   int64 `json:"clock_rtt_ns"`
	SpansShipped int64 `json:"spans_shipped"`
}

// LeaseInfo is one outstanding lease in the live lease table.
type LeaseInfo struct {
	Task        int    `json:"task"`
	Kind        string `json:"kind"`
	Worker      int    `json:"worker"`
	Attempt     int    `json:"attempt"`
	ExpiresInMS int64  `json:"expires_in_ms"`
}

// ClusterStatus is the coordinator's live health/progress snapshot, served
// by the obs server's /dist endpoint and folded into /healthz.
type ClusterStatus struct {
	Op          string        `json:"op"`
	N           int           `json:"n"`
	NB          int           `json:"nb"`
	Tasks       int           `json:"tasks"`
	Completed   int           `json:"tasks_completed"`
	Done        bool          `json:"done"`
	WorkersLive int           `json:"workers_live"`
	UptimeMS    int64         `json:"uptime_ms"`
	Workers     []WorkerInfo  `json:"workers"`
	Leases      []LeaseInfo   `json:"leases"`
	Evictions   []Eviction    `json:"evictions"`
	Stats       StatsSnapshot `json:"stats"`
}

// nowNS is the coordinator's trace clock: nanoseconds since its epoch.
func (c *Coordinator) nowNS() int64 { return time.Since(c.epoch).Nanoseconds() }

// faultLocked records a fault instant on the affected worker's process
// lane and hands the same record to the Events hook.
func (c *Coordinator) faultLocked(kind string, worker, task, attempt int, detail string) {
	now := c.nowNS()
	e := trace.Event{
		ID: task, Worker: worker, Attempt: attempt,
		Start: now, End: now,
		Proc: worker + 1, Phase: kind, Err: detail,
	}
	c.cevents = append(c.cevents, e)
	if c.opt.Events != nil {
		c.opt.Events(e)
	}
}

// rootLocked resolves a registration id to its lineage root: the first
// identity the same worker process registered under. Trace absorption
// state is keyed by root because the span shipper lives for the process,
// not the registration.
func (c *Coordinator) rootLocked(id int) int {
	for {
		p, ok := c.lineage[id]
		if !ok || p == id {
			return id
		}
		id = p
	}
}

// absorbLocked lands one shipped span batch. base is the cumulative index
// of the batch's first span; any prefix already absorbed from this
// shipper's lineage is dropped, making retransmitted and re-shipped
// batches idempotent — including a batch absorbed under a previous
// identity whose acknowledgement was lost before the worker rejoined.
func (c *Coordinator) absorbLocked(shipper int, spans []trace.Event, base, off, rtt int64, hasOff bool) {
	shipper = c.rootLocked(shipper)
	if hasOff {
		if r, seen := c.offRTTs[shipper]; !seen || rtt < r {
			c.offRTTs[shipper] = rtt
			c.offs[shipper] = off
		}
	}
	if len(spans) == 0 {
		return
	}
	end := base + int64(len(spans))
	have := c.absorbed[shipper]
	if end <= have {
		return // full retransmission
	}
	if skip := have - base; skip > 0 {
		spans = spans[skip:]
	}
	c.absorbed[shipper] = end
	c.shards[shipper] = append(c.shards[shipper], spans...)
	if c.opt.Events != nil {
		for _, e := range spans {
			if trace.IsFault(e.Phase) {
				c.opt.Events(e)
			}
		}
	}
}

// localSpanLocked records one coordinator-local task execution (the
// degraded-mode path) on process lane 0.
func (c *Coordinator) localSpanLocked(id int, name string, attempt int, startNS int64, err error) {
	e := trace.Event{
		ID: id, Name: name, Worker: 0, Attempt: attempt,
		Start: startNS, End: c.nowNS(), Proc: 0,
	}
	if err != nil {
		e.Outcome = trace.OutcomeFailed
		e.Err = err.Error()
	}
	c.cevents = append(c.cevents, e)
}

// ClusterLog merges the coordinator's own events with every shipped worker
// shard into one trace.Log on the coordinator's clock: each worker's
// local timestamps are re-based by its best (min-RTT) offset sample, a
// single constant per shipper, so per-worker ordering is exactly the
// recording order. Whole-attempt events gain the frontier's dependence
// edges, making the merged log analyzable by AnalyzeDAG.
func (c *Coordinator) ClusterLog() *trace.Log {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := trace.NewLog()
	withDeps := func(e trace.Event) trace.Event {
		if e.Phase == "" && e.ID >= 0 && e.ID < len(c.taskDeps) {
			e.Deps = c.taskDeps[e.ID]
		}
		return e
	}
	for _, e := range c.cevents {
		l.Add(withDeps(e))
	}
	for shipper, spans := range c.shards {
		off := c.offs[shipper]
		for _, e := range spans {
			e.Start += off
			e.End += off
			l.Add(withDeps(e))
		}
	}
	return l
}

// Status snapshots the live cluster state.
func (c *Coordinator) Status() ClusterStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	st := ClusterStatus{
		Op:          c.opt.Op,
		N:           c.a.N,
		NB:          c.a.NB,
		Tasks:       len(c.pl.tasks),
		Completed:   int(c.stats.TasksCompleted),
		Done:        c.done,
		WorkersLive: c.liveCountLocked(),
		UptimeMS:    c.nowNS() / 1e6,
		Stats:       c.stats.StatsSnapshot,
	}
	for _, e := range c.cevents {
		if e.Phase == trace.PhaseEvicted {
			st.Evictions = append(st.Evictions, Eviction{Worker: e.Worker, Reason: e.Err, AtMS: e.Start / 1e6})
		}
	}
	for id, w := range c.workers {
		root := c.rootLocked(id)
		st.Workers = append(st.Workers, WorkerInfo{
			ID: id, Slot: w.slot, Live: w.live(),
			Evicted: w.evicted, Departed: w.byed,
			LastBeatMS:   now.Sub(w.lastBeat).Milliseconds(),
			ClockOffsetN: c.offs[root],
			ClockRTTNS:   c.offRTTs[root],
			SpansShipped: c.absorbed[root],
		})
	}
	for _, l := range c.leases {
		st.Leases = append(st.Leases, LeaseInfo{
			Task: l.task, Kind: c.pl.tasks[l.task].Kind,
			Worker: l.worker, Attempt: c.attempts[l.task],
			ExpiresInMS: l.deadline.Sub(now).Milliseconds(),
		})
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].ID < st.Workers[j].ID })
	sort.Slice(st.Leases, func(i, j int) bool { return st.Leases[i].Task < st.Leases[j].Task })
	return st
}
