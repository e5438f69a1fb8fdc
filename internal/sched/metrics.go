package sched

import (
	"errors"
	"strconv"
	"sync"

	"exadla/internal/metrics"
)

// rtMetrics instruments one Runtime against a metrics.Registry. All handle
// operations are nil-safe, and the per-task path is additionally gated on
// the registry's enabled flag, so a Runtime built against the (disabled)
// default registry pays one atomic load per task.
//
// Exported names, all under the "sched." prefix:
//
//	sched.tasks_submitted            counter
//	sched.tasks_completed            counter
//	sched.tasks_retried              counter (failed attempts re-enqueued)
//	sched.tasks_failed               counter (permanent task failures)
//	sched.tasks_panicked             counter (permanent failures via panic)
//	sched.tasks_skipped              counter (dependents poisoned by a failure)
//	sched.tasks_timed_out            counter (attempts abandoned by the watchdog)
//	sched.workers_lost               counter (workers declared dead and replaced)
//	sched.ready_depth                gauge (current ready-queue length)
//	sched.ready_high_water           gauge (max ready-queue length seen)
//	sched.queue_wait_ns              histogram (per-attempt ready→start wait)
//	sched.worker.<id>.busy_ns        counter (time inside task bodies)
//	sched.worker.<id>.idle_ns        counter (time waiting for work)
//	sched.kernel.<name>.tasks        counter
//	sched.kernel.<name>.ns           counter (total execution time)
//	sched.kernel.<name>.latency_ns   histogram (per-task execution time)
//
// Runtimes sharing a registry (the default) aggregate into the same names.
type rtMetrics struct {
	reg       *metrics.Registry
	submitted *metrics.Counter
	completed *metrics.Counter
	retried   *metrics.Counter
	failed    *metrics.Counter
	panicked  *metrics.Counter
	skipped   *metrics.Counter
	timedOut  *metrics.Counter
	lost      *metrics.Counter
	depth     *metrics.Gauge
	highWater *metrics.Gauge
	queueWait *metrics.Histogram
	busy      []*metrics.Counter
	idle      []*metrics.Counter

	kernels sync.Map // kernel name -> *kernelStats
}

type kernelStats struct {
	tasks *metrics.Counter
	ns    *metrics.Counter
	lat   *metrics.Histogram
}

func newRTMetrics(reg *metrics.Registry, workers int) *rtMetrics {
	m := &rtMetrics{
		reg:       reg,
		submitted: reg.Counter("sched.tasks_submitted"),
		completed: reg.Counter("sched.tasks_completed"),
		retried:   reg.Counter("sched.tasks_retried"),
		failed:    reg.Counter("sched.tasks_failed"),
		panicked:  reg.Counter("sched.tasks_panicked"),
		skipped:   reg.Counter("sched.tasks_skipped"),
		timedOut:  reg.Counter("sched.tasks_timed_out"),
		lost:      reg.Counter("sched.workers_lost"),
		depth:     reg.Gauge("sched.ready_depth"),
		highWater: reg.Gauge("sched.ready_high_water"),
		queueWait: reg.Histogram("sched.queue_wait_ns"),
		busy:      make([]*metrics.Counter, workers),
		idle:      make([]*metrics.Counter, workers),
	}
	for w := 0; w < workers; w++ {
		id := strconv.Itoa(w)
		m.busy[w] = reg.Counter("sched.worker." + id + ".busy_ns")
		m.idle[w] = reg.Counter("sched.worker." + id + ".idle_ns")
	}
	return m
}

func (m *rtMetrics) on() bool { return m.reg.Enabled() }

// taskSubmitted records one submission.
func (m *rtMetrics) taskSubmitted() { m.submitted.Inc() }

// readyLen publishes the ready-queue length after an enqueue or dequeue,
// maintaining the high-water mark. Called with Runtime.mu held.
func (m *rtMetrics) readyLen(n int) {
	m.depth.Set(float64(n))
	m.highWater.SetMax(float64(n))
}

// taskDone records one executed task attempt for worker w with execution
// time ns and ready→start queue wait waitNs (negative when unknown).
func (m *rtMetrics) taskDone(name string, w int, ns, waitNs int64) {
	if !m.on() {
		return
	}
	m.completed.Inc()
	m.busy[w].Add(ns)
	if waitNs >= 0 {
		m.queueWait.Observe(waitNs)
	}
	ks := m.kernel(name)
	ks.tasks.Inc()
	ks.ns.Add(ns)
	ks.lat.Observe(ns)
}

// attemptFailed records one failed attempt: a watchdog timeout, and
// either a retry or a permanent failure (counted again as a panic when
// the body panicked).
func (m *rtMetrics) attemptFailed(err error, retrying bool) {
	if errors.Is(err, ErrTaskTimeout) {
		m.timedOut.Inc()
	}
	if retrying {
		m.retried.Inc()
		return
	}
	m.failed.Inc()
	if errors.Is(err, ErrPanicked) {
		m.panicked.Inc()
	}
}

// taskSkipped records one dependent poisoned by an upstream failure.
func (m *rtMetrics) taskSkipped() { m.skipped.Inc() }

// workerLost records one worker declared dead and replaced.
func (m *rtMetrics) workerLost() { m.lost.Inc() }

// workerIdle records ns nanoseconds worker w spent without a task.
func (m *rtMetrics) workerIdle(w int, ns int64) {
	if !m.on() {
		return
	}
	m.idle[w].Add(ns)
}

// kernel resolves (creating on first use) the per-kernel metric bundle.
func (m *rtMetrics) kernel(name string) *kernelStats {
	if name == "" {
		name = "anon"
	}
	if v, ok := m.kernels.Load(name); ok {
		return v.(*kernelStats)
	}
	ks := &kernelStats{
		tasks: m.reg.Counter("sched.kernel." + name + ".tasks"),
		ns:    m.reg.Counter("sched.kernel." + name + ".ns"),
		lat:   m.reg.Histogram("sched.kernel." + name + ".latency_ns"),
	}
	v, _ := m.kernels.LoadOrStore(name, ks)
	return v.(*kernelStats)
}
