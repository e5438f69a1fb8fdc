package core

import (
	"exadla/internal/blas"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// ApplySweep submits sweep i of the solve with f's factor on b without
// waiting. The LU solve's first sweep, alone, replays the elimination on a
// B of any shape with A's row tiling.
func ApplySweep[F blas.Float](s sched.Scheduler, f *Factors[F], b *tile.Matrix[F], i int) {
	submitSolve(s, f, b, &errState{}, solves[f.op][i])
}

// TrtriLowerForTest runs TrtriLower with a private error state.
func TrtriLowerForTest[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) {
	TrtriLower(s, a, &errState{})
}
