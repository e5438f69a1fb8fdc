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

// InverseSweep submits sweep i of the inverse in place on the lower
// triangle of a without waiting: 0 is L ← L⁻¹, 1 is W ← Wᵀ·W.
func InverseSweep[F blas.Float](s sched.Scheduler, a *tile.Matrix[F], i int) {
	submitSolve(s, newFactors(OpCholesky, a), a, &errState{}, inverse[i])
}
