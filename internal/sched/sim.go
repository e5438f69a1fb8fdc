package sched

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

// SimEvent is one task execution in a simulated schedule, attributed to a
// virtual worker; times are in seconds.
type SimEvent struct {
	// ID is the task's node index in the simulated graph.
	ID     int
	Name   string
	Worker int
	// Ready is when the task's last dependency finished (0 for initial
	// tasks); Start-Ready is the simulated queue wait.
	Ready float64
	Start float64
	End   float64
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

// SimulateEvents is Simulate returning the per-task schedule for Gantt
// rendering and timeline analysis. Barrier nodes are omitted from events.
func SimulateEvents(g *Graph, workers int) (SimResult, []SimEvent) {
	return simulate(g, workers, true)
}

func simulate(g *Graph, workers int, record bool) (SimResult, []SimEvent) {
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
	var events []SimEvent

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
				events = append(events, SimEvent{
					ID: i, Name: g.Nodes[i].Name, Worker: w,
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
