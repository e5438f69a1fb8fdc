package dist

import (
	"sort"
	"testing"

	"exadla/internal/sched"
)

// TestPicksFollowReadyOrder queues every task of a Cholesky plan at once
// and drains it through the coordinator's three picks — non-strict, strict
// (own slot, then vacant slots) and the local fallback — checking each
// pops in the runtime's ready order: higher priority first, plan order
// breaking ties.
func TestPicksFollowReadyOrder(t *testing.T) {
	const nt, p, q = 6, 2, 2
	pl := makePlan(OpCholesky, nt, 0)
	prio := func(id int) int { return pl.tasks[id].Priority(pl.steps) }
	inOrder := func(ids []int) []int {
		out := append([]int(nil), ids...)
		sort.Slice(out, func(a, b int) bool {
			if pa, pb := prio(out[a]), prio(out[b]); pa != pb {
				return pa > pb
			}
			return out[a] < out[b]
		})
		return out
	}
	ties := 0
	for id := 1; id < len(pl.tasks); id++ {
		if prio(id) == prio(id-1) {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("plan has no priority ties; the tie rule goes untested")
	}
	// fill queues every task; slots 0 and 1 are owned, 2 and 3 vacant.
	fill := func(strict bool) (*Coordinator, map[int][]int) {
		c := &Coordinator{opt: Options{Strict: strict, GridP: p, GridQ: q}, pl: pl}
		nslots := 1
		if strict {
			nslots = p * q
		}
		c.heaps = make([]sched.Ready[int], nslots)
		c.slots = []int{0, 1, -1, -1}
		bySlot := map[int][]int{}
		for id := range pl.tasks {
			c.pushReadyLocked(id)
			s := homeSlot(&pl.tasks[id], p, q)
			bySlot[s] = append(bySlot[s], id)
		}
		return c, bySlot
	}
	drain := func(pick func() (int, bool)) []int {
		var got []int
		for id, ok := pick(); ok; id, ok = pick() {
			got = append(got, id)
		}
		return got
	}
	all := make([]int, len(pl.tasks))
	for id := range all {
		all[id] = id
	}
	check := func(name string, got, want []int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s popped %d tasks, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s pop %d = task %d (prio %d), want task %d (prio %d)",
					name, i, got[i], prio(got[i]), want[i], prio(want[i]))
			}
		}
	}

	c, _ := fill(false)
	w := &workerState{id: 0, slot: 0}
	check("non-strict", drain(func() (int, bool) { return c.pickTaskLocked(w) }), inOrder(all))

	c, bySlot := fill(true)
	want := append(inOrder(bySlot[0]), inOrder(append(bySlot[2], bySlot[3]...))...)
	check("strict", drain(func() (int, bool) { return c.pickTaskLocked(w) }), want)
	if c.heaps[1].Len() != len(bySlot[1]) {
		t.Fatalf("strict pick took %d tasks from another worker's slot", len(bySlot[1])-c.heaps[1].Len())
	}

	c, _ = fill(true)
	check("local", drain(func() (int, bool) { return c.popBestLocked(nil) }), inOrder(all))
}
