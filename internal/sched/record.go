package sched

import "time"

// GraphNode is one task in a recorded graph.
type GraphNode struct {
	// Name is the kernel label.
	Name string
	// Cost is the measured execution time in seconds.
	Cost float64
	// Deps are indices of nodes this one depends on (always smaller than
	// the node's own index: graphs are recorded in topological order), in
	// the dependence rule's discovery order with the last barrier, if any,
	// at the end.
	Deps []int
	// Priority mirrors Task.Priority.
	Priority int
	// Barrier marks a synthetic fork–join barrier node (zero cost).
	Barrier bool
	// Reads and Writes preserve the task's declared data accesses, so
	// analyses (communication counting, locality studies) can replay data
	// placement decisions over the graph.
	Reads, Writes []Handle
}

// Graph is a recorded task DAG with measured costs, replayable under any
// virtual worker count by Simulate.
type Graph struct {
	Nodes []GraphNode
}

// flattenBarriers returns per-node dependency lists with barrier nodes
// transitively replaced by their own (flattened) dependencies, so analyses
// that drop barrier nodes — such as Simulate's events — still see the
// fork–join ordering as direct task→task edges. Barrier nodes keep an entry
// (their flattened deps) so indices stay aligned with g.Nodes.
func (g *Graph) flattenBarriers() [][]int {
	flat := make([][]int, len(g.Nodes))
	for i, n := range g.Nodes {
		seen := map[int]bool{}
		var deps []int
		for _, d := range n.Deps {
			if g.Nodes[d].Barrier {
				for _, bd := range flat[d] { // deps precede node: flat[d] is final
					if !seen[bd] {
						seen[bd] = true
						deps = append(deps, bd)
					}
				}
			} else if !seen[d] {
				seen[d] = true
				deps = append(deps, d)
			}
		}
		flat[i] = deps
	}
	return flat
}

// Recorder is a Scheduler that executes tasks inline (sequentially, in
// submission order — always a legal schedule), measures their cost, and
// captures the dependence graph. Wait inserts a barrier node, so fork–join
// algorithms record their barriers and dataflow algorithms record none.
//
// Recorder is not safe for concurrent submission; recording is inherently
// sequential.
type Recorder struct {
	graph       Graph
	deps        deps[int]
	lastBarrier int // index of most recent barrier node, -1 if none
	sinceBar    []int
	run         bool
	failures    []*TaskError
}

// NewRecorder returns a Recorder that executes and times each task as it is
// submitted.
func NewRecorder() *Recorder {
	return &Recorder{lastBarrier: -1, run: true}
}

// NewModelRecorder returns a Recorder that does not execute tasks; callers
// must fill costs afterwards (or accept zero costs and use the graph for
// structural analysis only).
func NewModelRecorder() *Recorder {
	r := NewRecorder()
	r.run = false
	return r
}

// Submit records (and, by default, executes and times) one task.
func (rec *Recorder) Submit(t Task) {
	idx := len(rec.graph.Nodes)
	node := GraphNode{
		Name:     t.Name,
		Priority: t.Priority,
		Reads:    append([]Handle(nil), t.Reads...),
		Writes:   append([]Handle(nil), t.Writes...),
		Deps:     append([]int(nil), rec.deps.link(idx, t.Reads, t.Writes)...),
	}
	if rec.lastBarrier >= 0 {
		node.Deps = append(node.Deps, rec.lastBarrier)
	}

	if rec.run && (t.Fn != nil || t.FnErr != nil) {
		start := time.Now()
		var err error
		if t.FnErr != nil {
			err = t.FnErr()
		} else {
			t.Fn()
		}
		node.Cost = time.Since(start).Seconds()
		if err != nil {
			rec.failures = append(rec.failures, &TaskError{
				Kernel:   t.Name,
				Seq:      idx,
				Attempts: 1,
				Writes:   append([]Handle(nil), t.Writes...),
				Err:      err,
			})
		}
	}
	rec.graph.Nodes = append(rec.graph.Nodes, node)
	rec.sinceBar = append(rec.sinceBar, idx)
}

// Wait records a fork–join barrier: every subsequent task will depend on
// everything submitted so far. Tasks were already executed inline, so there
// is nothing to wait for. Consecutive barriers collapse.
func (rec *Recorder) Wait() {
	if len(rec.sinceBar) == 0 {
		return
	}
	idx := len(rec.graph.Nodes)
	node := GraphNode{Name: "barrier", Barrier: true, Deps: append([]int(nil), rec.sinceBar...)}
	rec.graph.Nodes = append(rec.graph.Nodes, node)
	rec.lastBarrier = idx
	rec.sinceBar = rec.sinceBar[:0]
}

// WaitErr records the barrier like Wait and returns the failures recorded
// so far as a *FailuresError, consuming them. The Recorder executes tasks
// inline and has no retry or poisoning — it is a measurement tool, so
// every submitted task runs exactly once and failures are only reported.
func (rec *Recorder) WaitErr() error {
	rec.Wait()
	fs := rec.failures
	rec.failures = nil
	if len(fs) == 0 {
		return nil
	}
	return &FailuresError{Failures: fs}
}

// Graph returns the recorded DAG.
func (rec *Recorder) Graph() *Graph { return &rec.graph }
