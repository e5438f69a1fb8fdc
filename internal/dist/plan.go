package dist

import "exadla/internal/core"

// The plan is the coordinator's numbered copy of a tile program: the steps
// core.Program unrolls — the very ones the in-process drivers submit as
// closures — named by (Kind, K, I, J) so they can cross a process boundary.
// Both sides derive everything else (operand tiles via Step.Accesses, the
// kernel call via core.Apply) from the step plus the matrix geometry, so a
// task re-executed on a different worker after a crash is the *same*
// computation, which is what makes the bitwise-determinism guarantee
// survive the wire: the DAG serializes the writers of every tile, each
// kernel is deterministic, therefore any legal schedule on any set of
// processes — or in one process — produces bit-identical factors.

// Supported distributed operations.
const (
	OpCholesky = core.OpCholesky
	// OpLUNoPiv is right-looking LU without pivoting (callers supply
	// diagonally dominant matrices); pivoting would make tile finalization
	// order data-dependent, which the lease/erasure protocol does not need
	// and PR-scoped determinism tests do not want.
	OpLUNoPiv = core.OpLUNoPiv
)

// coord is a tile coordinate, used as the sched.Frontier handle for
// dependence tracking and as the worker cache key.
type coord = [2]int

// plan is the fully unrolled task list of one factorization, in the same
// submission order as the in-process runtime uses.
type plan struct {
	tasks []TaskSpec
	// finalWriter[c] is the ID of the last task writing tile c — the task
	// whose commit finalizes the tile and folds it into the erasure parity.
	finalWriter map[coord]int
	// steps is the number of panel steps in the full factorization (NT),
	// independent of the resume offset.
	steps int
}

// makePlan numbers op's program over an nt×nt tile grid from panel step
// fromStep on (tiles must already hold the state of earlier steps — the
// checkpoint-resume path). Task IDs index p.tasks.
func makePlan(op string, nt, fromStep int) *plan {
	prog := core.Program(op, nt, nt, fromStep)
	p := &plan{steps: nt, finalWriter: core.LastWriters(prog)}
	for id, st := range prog {
		p.tasks = append(p.tasks, TaskSpec{ID: id, Step: st})
	}
	return p
}

// homeSlot is the block-cyclic owner of a task: the process-grid slot of
// its first written tile.
func homeSlot(t *TaskSpec, p, q int) int {
	_, w := t.Accesses()
	return cyclicSlot(w[0][0], w[0][1], p, q)
}
