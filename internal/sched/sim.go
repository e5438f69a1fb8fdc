package sched

import "exadla/internal/trace"

// SimResult summarizes a simulated execution of a recorded graph.
type SimResult struct {
	// Makespan is the simulated wall-clock time in seconds.
	Makespan float64
	// Busy is the total worker-busy time in seconds (equals the graph's
	// TotalWork).
	Busy float64
	// Utilization is Busy / (Workers · Makespan) in [0, 1].
	Utilization float64
	// Workers echoes the simulated worker count.
	Workers int
}

// Simulate replays a recorded graph under the given number of virtual
// workers using event-driven greedy list scheduling: whenever a worker is
// free, it takes the ready task that runs first in the Runtime's ready
// order (Ready: higher priority first, then submission order, so
// equal-priority tasks start first in, first out, roots included). Idle
// workers take tasks lowest ID first. Simulated scaling thus reflects what
// the runtime would do on a machine with that many cores.
func Simulate(g *Graph, workers int) SimResult {
	res, _ := simulate(g, workers, false)
	return res
}

// SimulateEvents is Simulate returning the per-task schedule, one first
// attempt per task on its virtual worker with times in nanoseconds since
// the simulated start, for Gantt rendering and timeline analysis
// (trace.NewLog(events...)). Barrier nodes are omitted from events and
// flattened into direct task→task edges, so the DAG analysis and the
// Chrome export see the dependence structure.
func SimulateEvents(g *Graph, workers int) (SimResult, []trace.Event) {
	return simulate(g, workers, true)
}

func simulate(g *Graph, workers int, record bool) (SimResult, []trace.Event) {
	if workers < 1 {
		workers = 1
	}
	n := len(g.Nodes)
	if n == 0 {
		return SimResult{Workers: workers, Utilization: 1}, nil
	}

	indeg := make([]int, n)
	succs := make([][]int, n)
	for i, node := range g.Nodes {
		indeg[i] = len(node.Deps)
		for _, d := range node.Deps {
			succs[d] = append(succs[d], i)
		}
	}
	var ready Ready[int] // deps met, keyed by (priority, node index)
	readyAt := make([]float64, n)
	for i := range g.Nodes {
		if indeg[i] == 0 {
			ready.Push(i, g.Nodes[i].Priority, i)
		}
	}

	// running[w] is the node worker w executes (-1 when idle) and
	// finish[w] when it completes.
	running := make([]int, workers)
	finish := make([]float64, workers)
	for w := range running {
		running[w] = -1
	}
	var events []trace.Event
	var flat [][]int
	if record {
		flat = g.flattenBarriers()
	}
	ns := func(t float64) int64 { return int64(t * 1e9) }

	now := 0.0
	var busy float64
	for {
		// Start ready tasks on the idle workers.
		for w := 0; w < workers && ready.Len() > 0; w++ {
			if running[w] >= 0 {
				continue
			}
			i := ready.Pop()
			cost := g.Nodes[i].Cost
			running[w], finish[w] = i, now+cost
			busy += cost
			if record && !g.Nodes[i].Barrier {
				events = append(events, trace.Event{
					ID: i, Name: g.Nodes[i].Name, Worker: w, Attempt: 1, Deps: flat[i],
					Ready: ns(readyAt[i]), Start: ns(now), End: ns(finish[w]),
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
			break
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
	res := SimResult{Makespan: now, Busy: busy, Workers: workers}
	if now > 0 {
		res.Utilization = busy / (float64(workers) * now)
	} else {
		res.Utilization = 1
	}
	return res, events
}
