package sched

import (
	"math"

	"exadla/internal/trace"
)

// Simulate replays a recorded graph under the given number of virtual
// workers using event-driven greedy list scheduling: whenever a worker is
// free, it takes the ready task that runs first in the Runtime's ready
// order (Ready: higher priority first, then submission order, so
// equal-priority tasks start first in, first out, roots included). Idle
// workers take tasks lowest ID first. Simulated scaling thus reflects what
// the runtime would do on a machine with that many cores.
//
// The schedule comes back as one first attempt per task on its virtual
// worker, with times in nanoseconds since the simulated start; measure it
// with trace.NewLog(events...).AnalyzeDAG(). The simulation runs in
// integer nanoseconds with each node's cost rounded once, so every event
// lasts exactly its node's rounded cost and the work and span of the
// schedule do not depend on the worker count. Barrier nodes are omitted
// from the events and flattened into direct task→task edges, so the DAG
// analysis and the Chrome export see the dependence structure.
func Simulate(g *Graph, workers int) []trace.Event {
	if workers < 1 {
		workers = 1
	}
	n := len(g.Nodes)
	indeg := make([]int, n)
	succs := make([][]int, n)
	for i, node := range g.Nodes {
		indeg[i] = len(node.Deps)
		for _, d := range node.Deps {
			succs[d] = append(succs[d], i)
		}
	}
	var ready Ready[int] // deps met, keyed by (priority, node index)
	readyAt := make([]int64, n)
	for i := range g.Nodes {
		if indeg[i] == 0 {
			ready.Push(i, g.Nodes[i].Priority, i)
		}
	}

	// running[w] is the node worker w executes (-1 when idle) and
	// finish[w] when it completes.
	running := make([]int, workers)
	finish := make([]int64, workers)
	for w := range running {
		running[w] = -1
	}
	var events []trace.Event
	flat := g.flattenBarriers()

	var now int64
	for {
		// Start ready tasks on the idle workers.
		for w := 0; w < workers && ready.Len() > 0; w++ {
			if running[w] >= 0 {
				continue
			}
			i := ready.Pop()
			running[w], finish[w] = i, now+int64(math.Round(g.Nodes[i].Cost*1e9))
			if !g.Nodes[i].Barrier {
				events = append(events, trace.Event{
					ID: i, Name: g.Nodes[i].Name, Worker: w, Attempt: 1, Deps: flat[i],
					Ready: readyAt[i], Start: now, End: finish[w],
				})
			}
		}
		// Advance to the earliest finish; nothing running means done.
		next := -1
		for w, i := range running {
			if i >= 0 && (next < 0 || finish[w] < finish[next]) {
				next = w
			}
		}
		if next < 0 {
			return events
		}
		now = finish[next]
		// Complete everything finishing at 'now'.
		for w, i := range running {
			if i < 0 || finish[w] > now {
				continue
			}
			running[w] = -1
			for _, s := range succs[i] {
				indeg[s]--
				if indeg[s] == 0 {
					readyAt[s] = now
					ready.Push(s, g.Nodes[s].Priority, s)
				}
			}
		}
	}
}
