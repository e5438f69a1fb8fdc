package trace

import (
	"math"
	"sort"
)

// DAGStats is the dependence-aware view of a trace: the work/span analysis
// (T₁, T∞) that bounds how fast the recorded DAG could possibly run, plus
// where the critical path actually spends its time. All times in seconds.
type DAGStats struct {
	// Tasks is the number of distinct executed tasks; Attempts counts task
	// executions including retries, and Retries how many attempts ended
	// retried, corruption-corrected, or timed out (watchdog re-execution).
	Tasks, Attempts, Retries int
	// T1 is the total work: summed duration of every attempt — the
	// single-worker makespan lower bound.
	T1 float64
	// TInf is the critical-path length: the longest dependence-weighted
	// chain — the makespan lower bound at infinite parallelism.
	TInf float64
	// Makespan is the observed wall-clock extent (first start to last end).
	Makespan float64
	// Workers is the number of distinct workers observed.
	Workers int
	// CritPath lists the task IDs on one longest path, in execution order;
	// CritTasks is its length.
	CritPath  []int
	CritTasks int
	// CritShare maps kernel name to its fraction of critical-path time.
	CritShare map[string]float64
	// ByKernel maps kernel name to the summed seconds of its attempts.
	ByKernel map[string]float64
	// FetchTime and CommitTime are the summed seconds of fetch and commit
	// sub-phase spans (cluster traces only; zero for in-process traces).
	FetchTime, CommitTime float64
	// TCommInf is the communication-aware critical path: the longest chain
	// weighted by fetch+compute+commit per task. TCommInf ≥ TInf, so the
	// comm-limited speedup bound can only be tighter than the DAG-limited
	// one. Equals TInf when the trace carries no sub-phase spans.
	TCommInf float64
	// BytesFetched is the live bytes moved by task-driven fetch spans
	// (initial scatter prefetch, recorded under task ID -1, is excluded so
	// the number is comparable to the per-task communication model).
	BytesFetched int64
}

// Speedup returns the achieved speedup T₁/makespan (0 if unmeasurable).
func (s DAGStats) Speedup() float64 {
	if s.Makespan <= 0 {
		return 0
	}
	return s.T1 / s.Makespan
}

// SpeedupBound returns the DAG-limited speedup bound at p workers:
// min(p, T₁/T∞). No schedule can beat it.
func (s DAGStats) SpeedupBound(p int) float64 {
	if s.TInf <= 0 {
		return float64(p)
	}
	return math.Min(float64(p), s.T1/s.TInf)
}

// CommSpeedupBound returns the communication-limited speedup bound at p
// workers: min(p, T₁/TComm∞). Because every chain is at least as long once
// fetch and commit time is charged to its tasks, this is ≤ SpeedupBound —
// the gap between the two is how much of the DAG headroom communication
// eats.
func (s DAGStats) CommSpeedupBound(p int) float64 {
	if s.TCommInf <= 0 {
		return s.SpeedupBound(p)
	}
	return math.Min(float64(p), s.T1/s.TCommInf)
}

// BrentBound returns Brent's greedy-schedule makespan upper bound at p
// workers: T₁/p + T∞. Any work-conserving schedule finishes within it.
func (s DAGStats) BrentBound(p int) float64 {
	if p < 1 {
		p = 1
	}
	return s.T1/float64(p) + s.TInf
}

// dagNode aggregates the attempts of one task ID.
type dagNode struct {
	name string
	deps []int
	dur  float64 // summed whole-attempt durations, seconds
	comp float64 // summed compute sub-phase durations, seconds
	comm float64 // summed fetch+commit sub-phase durations, seconds
	// phased is set once any sub-phase span is seen for this task; the
	// whole-attempt span then stops being the weight source, because it
	// already contains the sub-phases.
	phased bool
}

// weight is the task's compute time: the compute sub-phases when the trace
// records them, the whole-attempt duration otherwise.
func (n *dagNode) weight() float64 {
	if n.phased {
		return n.comp
	}
	return n.dur
}

// commWeight additionally charges the task's fetch and commit time.
func (n *dagNode) commWeight() float64 {
	if n.phased {
		return n.comp + n.comm
	}
	return n.dur
}

// AnalyzeDAG computes the work/span decomposition of the recorded trace.
// Each task's weight is the summed duration of its attempts (a retried task
// stretches every path through it, which is exactly what retries do to the
// schedule). Skipped tasks never ran and are excluded.
func (l *Log) AnalyzeDAG() DAGStats {
	events := l.Events()
	st := DAGStats{CritShare: map[string]float64{}, ByKernel: map[string]float64{}}

	nodes := map[int]*dagNode{}
	node := func(e Event) *dagNode {
		n := nodes[e.ID]
		if n == nil {
			n = &dagNode{name: e.Name, deps: e.Deps}
			nodes[e.ID] = n
		}
		return n
	}
	commitSeen := map[[2]int]bool{} // (id, attempt) whose commit interval is charged
	var first, last int64
	for _, e := range events {
		if e.Attempt == 0 {
			continue
		}
		d := float64(e.End-e.Start) / 1e9
		switch e.Phase {
		case PhaseFetch:
			st.FetchTime += d
			if e.ID >= 0 {
				st.BytesFetched += e.Bytes
				n := node(e)
				n.comm += d
				n.phased = true
			}
			continue
		case PhaseCompute:
			if e.ID >= 0 {
				n := node(e)
				n.comp += d
				n.phased = true
			}
			continue
		case PhaseCommit:
			// Per-tile commit spans share one RPC interval; charge the
			// interval once per attempt.
			if e.ID >= 0 {
				key := [2]int{e.ID, e.Attempt}
				if !commitSeen[key] {
					commitSeen[key] = true
					st.CommitTime += d
					n := node(e)
					n.comm += d
					n.phased = true
				}
			}
			continue
		default:
			if e.Phase != "" {
				continue // fault instants carry no duration
			}
		}
		if st.Attempts == 0 {
			first, last = e.Start, e.End
		}
		st.Attempts++
		if e.Outcome == OutcomeRetried || e.Outcome == OutcomeCorrected ||
			e.Outcome == OutcomeTimedOut {
			st.Retries++
		}
		if e.Start < first {
			first = e.Start
		}
		if e.End > last {
			last = e.End
		}
		n := nodes[e.ID]
		if n == nil {
			n = &dagNode{name: e.Name, deps: e.Deps}
			nodes[e.ID] = n
		} else if len(n.deps) == 0 {
			// The node may have been created by a sub-phase span, which
			// carries no dependence edges; the whole-attempt span does.
			n.name, n.deps = e.Name, e.Deps
		}
		n.dur += d
		st.ByKernel[e.Name] += d
	}
	if st.Attempts == 0 {
		return st
	}
	st.Tasks = len(nodes)
	st.Makespan = float64(last-first) / 1e9
	workers := map[int]bool{}
	for _, e := range events {
		if e.Attempt > 0 && e.Worker >= 0 && e.Phase == "" {
			workers[e.Worker] = true
		}
	}
	st.Workers = len(workers)

	// Longest-path DP in ID order: dependence edges always point from a
	// smaller submission sequence number to a larger one.
	ids := make([]int, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	finish := make(map[int]float64, len(nodes))
	commFinish := make(map[int]float64, len(nodes))
	pred := make(map[int]int, len(nodes))
	critEnd, critFinish, commCrit := 0, math.Inf(-1), math.Inf(-1)
	for _, id := range ids {
		n := nodes[id]
		st.T1 += n.weight()
		start, commStart, p := 0.0, 0.0, id // p == id means "no predecessor"
		for _, d := range n.deps {
			if f, ok := finish[d]; ok && f > start {
				start, p = f, d
			}
			if f, ok := commFinish[d]; ok && f > commStart {
				commStart = f
			}
		}
		finish[id] = start + n.weight()
		commFinish[id] = commStart + n.commWeight()
		pred[id] = p
		if finish[id] > critFinish {
			critEnd, critFinish = id, finish[id]
		}
		if commFinish[id] > commCrit {
			commCrit = commFinish[id]
		}
	}
	st.TInf = critFinish
	st.TCommInf = commCrit

	// Backtrack one critical path and attribute its time per kernel.
	for id := critEnd; ; id = pred[id] {
		st.CritPath = append(st.CritPath, id)
		st.CritShare[nodes[id].name] += nodes[id].weight()
		if pred[id] == id {
			break
		}
	}
	for i, j := 0, len(st.CritPath)-1; i < j; i, j = i+1, j-1 {
		st.CritPath[i], st.CritPath[j] = st.CritPath[j], st.CritPath[i]
	}
	st.CritTasks = len(st.CritPath)
	if st.TInf > 0 {
		for k := range st.CritShare {
			st.CritShare[k] /= st.TInf
		}
	}
	return st
}
