package sched

import "fmt"

// Frontier tracks dependences by the Runtime's rule but leaves dispatch to
// the caller, so the ready set can be *pulled* by an external executor —
// the distributed coordinator leases ready tasks to remote workers over
// RPC, which the goroutine-pool Runtime's push-based dispatch cannot
// express.
//
// Tasks are added in submission order with declared read/write handles,
// exactly like Runtime.Submit, and the same RAW/WAR/WAW rule derives their
// edges. A task becomes ready when its last unmet dependence completes; the
// Frontier reports that by calling onReady (synchronously, from inside Add
// or Complete) and otherwise holds no queue of its own — queueing policy
// (priorities, placement, work stealing) belongs to the caller. Complete
// retires a task and releases its successors; an executor that loses a task
// mid-flight (a dead worker) simply re-runs it and calls Complete once.
//
// Frontier is not safe for concurrent use; callers serialize access (the
// distributed coordinator holds its own mutex across every call).
type Frontier struct {
	deps    deps[*fnode]
	nodes   map[int]*fnode
	pending int
	onReady func(id int)
}

type fnode struct {
	id    int
	succs []*fnode
	nDeps int
	done  bool
}

// NewFrontier returns an empty Frontier. onReady is invoked exactly once
// per task, when its dependences are all satisfied; it must not call back
// into the Frontier.
func NewFrontier(onReady func(id int)) *Frontier {
	return &Frontier{nodes: make(map[int]*fnode), onReady: onReady}
}

// Add registers task id with its declared accesses and returns the IDs of
// the tasks it depends on, completed or not — its structural edges, in the
// dependence rule's discovery order (nil for none). IDs must be unique and
// are the caller's names for tasks; Add panics on a duplicate. Dependences
// on earlier tasks are derived from the handles in submission order.
func (f *Frontier) Add(id int, reads, writes []Handle) []int {
	if _, dup := f.nodes[id]; dup {
		panic(fmt.Sprintf("sched: Frontier.Add duplicate task %d", id))
	}
	n := &fnode{id: id}
	f.nodes[id] = n
	f.pending++
	var ids []int
	for _, p := range f.deps.link(n, reads, writes) {
		ids = append(ids, p.id)
		if !p.done {
			p.succs = append(p.succs, n)
			n.nDeps++
		}
	}
	if n.nDeps == 0 {
		f.onReady(id)
	}
	return ids
}

// Complete retires task id and releases its successors, reporting any that
// became ready through onReady. Completing an unknown or already-completed
// task panics: with at-least-once remote execution the *caller* decides
// which attempt wins, and must call Complete exactly once for it.
func (f *Frontier) Complete(id int) {
	n := f.nodes[id]
	if n == nil {
		panic(fmt.Sprintf("sched: Frontier.Complete of unknown task %d", id))
	}
	if n.done {
		panic(fmt.Sprintf("sched: Frontier.Complete of completed task %d", id))
	}
	n.done = true
	f.pending--
	for _, s := range n.succs {
		s.nDeps--
		if s.nDeps == 0 {
			f.onReady(s.id)
		}
	}
}

// Completed reports whether task id has been completed.
func (f *Frontier) Completed(id int) bool {
	n := f.nodes[id]
	return n != nil && n.done
}

// Pending returns the number of added-but-not-completed tasks.
func (f *Frontier) Pending() int { return f.pending }

// Done reports whether every added task has completed.
func (f *Frontier) Done() bool { return f.pending == 0 }
