package sched

import "sync"

// runsBefore is the ready order: of two ready tasks, the one of higher
// priority runs first, and the earlier submission (lower seq) breaks ties.
// It is written once, here; the Runtime's shards, Simulate and the dist
// coordinator all dispatch through Ready, which is its only caller.
func runsBefore(prioA, seqA, prioB, seqB int) bool {
	if prioA != prioB {
		return prioA > prioB
	}
	return seqA < seqB
}

// Ready is a binary max-heap of ready work in the ready order, each
// payload keyed by its (priority, submission seq). The zero value is an
// empty heap; it does no locking of its own.
type Ready[T any] struct {
	q []readyItem[T]
}

type readyItem[T any] struct {
	prio, seq int
	v         T
}

// Len returns the number of queued payloads.
func (h *Ready[T]) Len() int { return len(h.q) }

// Push queues v under the key (prio, seq).
func (h *Ready[T]) Push(v T, prio, seq int) {
	it := readyItem[T]{prio, seq, v}
	h.q = append(h.q, it)
	i := len(h.q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !runsBefore(prio, seq, h.q[p].prio, h.q[p].seq) {
			break
		}
		h.q[i] = h.q[p]
		i = p
	}
	h.q[i] = it
}

// Pop removes and returns the payload that runs first. The heap must not
// be empty.
func (h *Ready[T]) Pop() T {
	v := h.q[0].v
	last := len(h.q) - 1
	it := h.q[last]
	h.q[last] = readyItem[T]{} // drop the payload reference
	h.q = h.q[:last]
	if last == 0 {
		return v
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && runsBefore(h.q[r].prio, h.q[r].seq, h.q[c].prio, h.q[c].seq) {
			c = r
		}
		if !runsBefore(h.q[c].prio, h.q[c].seq, it.prio, it.seq) {
			break
		}
		h.q[i] = h.q[c]
		i = c
	}
	h.q[i] = it
	return v
}

// Before reports whether h's top runs before o's. A non-empty heap runs
// before an empty one; an empty heap runs before nothing.
func (h *Ready[T]) Before(o *Ready[T]) bool {
	if len(h.q) == 0 {
		return false
	}
	if len(o.q) == 0 {
		return true
	}
	return runsBefore(h.q[0].prio, h.q[0].seq, o.q[0].prio, o.q[0].seq)
}

// readyShard is one worker's ready queue: a Ready heap of nodes behind its
// own mutex. Sharding the ready set per worker keeps enqueue/dequeue off
// the runtime-wide dependence lock — the per-task dispatch cost that
// dominates fine-grained tile DAGs — while the heap preserves the ready
// order within each shard. A worker drains its own shard first (tasks its
// finishes made ready stay local) and steals the top of another shard when
// it runs dry.
type readyShard struct {
	mu sync.Mutex
	h  Ready[*node]
}

// push adds n to the shard.
func (s *readyShard) push(n *node) {
	s.mu.Lock()
	s.h.Push(n, n.task.Priority, n.seq)
	s.mu.Unlock()
}

// pop removes and returns the node that runs first, or nil when the shard
// is empty. The node's enqueued flag is cleared under the shard lock, so a
// concurrent re-enqueue (retry, watchdog) observes a consistent state.
func (s *readyShard) pop() *node {
	s.mu.Lock()
	if s.h.Len() == 0 {
		s.mu.Unlock()
		return nil
	}
	n := s.h.Pop()
	n.enqueued.Store(false)
	s.mu.Unlock()
	return n
}
