// Package core implements the tile algorithms at the heart of the
// reproduction: Cholesky, LU (partial pivoting or none), and QR
// factorizations expressed as DAGs of tile kernels submitted to a dataflow
// scheduler, plus the fork–join baselines the extreme-scale argument
// compares against.
//
// The Cholesky, LU and QR loop nests are written once, as data
// (program.go): Program unrolls a nest into Steps, each Step knows its tile
// accesses and priority, and Apply runs its kernel. QR is two programs, one
// per elimination tree — the flat chain (OpQR) and the binary tree
// (OpQRTree, which on one tile column is TSQR) — and its reflector factors
// travel as tiles beside A's. Each factor's solve is data too (solve.go):
// sweeps over the (A, B) pair — L forward then Lᵀ back; LU's swptrsm and
// lgemm replayed then U back; QR's Qᵀ replayed then R back — submitted by
// one walk, behind Factor (factor and solve in one graph) and Solve (a
// stored factor). The inverse of an SPD matrix is two more sweeps of that
// walk on the Cholesky factor's own tiles — L ← L⁻¹ (TRTRI), then Wᵀ·W
// (LAUUM) — behind Potri. Run is that walk for column-major callers: its
// first tasks fill the tiles of tile.Deferred operands (convert) and its
// last copy the result out (gather). One program, many executors — the
// same steps are walked by
//
//   - the dataflow drivers, which submit all tasks up front and synchronize
//     once, so the scheduler overlaps independent work across iteration
//     boundaries;
//   - the fork–join walk (Factor with forkJoin set), which inserts a
//     barrier (Scheduler.WaitErr) after each phase of each iteration,
//     modelling the block-synchronous LAPACK-style execution whose idle
//     time the talk attacks;
//   - the guarded walks (Protect, Resume, and Run given Guards), which
//     layer ABFT checksums, erasure parity and checkpoints onto the
//     Cholesky and LU walks, with no drain before a solve;
//   - the distributed runtime (internal/dist), which ships Cholesky and
//     no-pivot LU Steps to remote workers that call Apply on their tile
//     caches.
//
// The in-process walk of a factorization program also owns a pack table
// (pack.go): the trailing updates — Cholesky's gemm and syrk, LU's lgemm —
// share one packed copy of each panel tile they read, made by its first
// reader and returned to the pool after its last, instead of each packing
// the tile again. Apply, as the distributed workers and the solves call
// it, packs per call.
//
// The tile GEMM alone submits its own nest: a product has three operands
// where the walks take two.
//
// Factorization errors discovered inside tasks (a non-positive-definite
// diagonal tile, a singular pivot) are captured in an errState and the first
// is returned after the final Wait. Once it is set, the remaining tasks of
// most algorithms turn into no-ops so the DAG drains quickly; pivoted LU
// runs to completion, like LAPACK's GETRF.
package core

import (
	"errors"
	"sync"

	"exadla/internal/blas"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// errState collects the first error raised by any task and lets subsequent
// tasks cheaply discover that the computation is doomed.
type errState struct {
	mu  sync.Mutex
	err error
}

func (e *errState) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// join records err after any error already recorded.
func (e *errState) join(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	} else {
		e.err = errors.Join(e.err, err)
	}
	e.mu.Unlock()
}

func (e *errState) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

func (e *errState) failed() bool { return e.get() != nil }

// Gemm submits tile tasks computing C ← A·B over tiled matrices with the
// same NB and conforming dimensions, one task per tile of C. The caller is
// responsible for Wait.
func Gemm[F blas.Float](s sched.Scheduler, a, b, c *tile.Matrix[F]) {
	if a.MT != c.MT || b.NT != c.NT || a.NT != b.MT {
		panic("core: Gemm tile dimensions mismatch")
	}
	for i := range c.MT {
		for j := range c.NT {
			reads := make([]sched.Handle, 0, 2*a.NT)
			for l := range a.NT {
				reads = append(reads, a.Handle(i, l), b.Handle(l, j))
			}
			s.Submit(sched.Task{
				Name:   "gemm",
				Reads:  reads,
				Writes: []sched.Handle{c.Handle(i, j)},
				Fn: func() {
					var beta F
					for l := range a.NT {
						blas.Gemm(blas.NoTrans, blas.NoTrans,
							c.TileRows(i), c.TileCols(j), a.TileCols(l),
							1, a.Tile(i, l), a.TileRows(i),
							b.Tile(l, j), b.TileRows(l),
							beta, c.Tile(i, j), c.TileRows(i))
						beta = 1
					}
				},
			})
		}
	}
}
