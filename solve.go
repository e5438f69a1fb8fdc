package exadla

import (
	"fmt"
	"math/rand"

	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/mixed"
	"exadla/internal/rnd"
	"exadla/internal/tile"
)

// factored is what the reusable factorizations share: the tile factor and
// the Context that solves with it.
type factored struct {
	ctx *Context
	f   *core.Factors[float64]
}

// apply does then (core.ThenSolve or core.ThenQT) with the factor on B
// and returns the result. B is untouched.
func (f factored) apply(b *Matrix, then core.Then) (*Matrix, error) {
	x, _, err := f.ctx.run(f.f, "", nil, b, f.f.A.NB, then, nil)
	return x, err
}

// run is the one entry path of the tile solvers, a core.Run walk: it
// factors A with op under the guards g — unless f is the factor to reuse
// — then does then on B, or on the factor's own tiles when b is nil, and
// returns the result and the factor. Its operands are tiled at nb as its
// tasks need them, one convert task per tile, and the result copied out by
// one gather task per tile, so A and B are untouched, and free again once
// it returns.
func (c *Context) run(f *core.Factors[float64], op string, a, b *Matrix, nb int, then core.Then, g *core.Guards) (*Matrix, *core.Factors[float64], error) {
	var ta *tile.Matrix[float64]
	if f != nil {
		ta = f.A
	} else {
		ta = tile.Deferred(a.rows, a.cols, a.data, a.rows, nb)
	}
	tb := ta
	if b != nil {
		if b.rows != ta.M {
			return nil, nil, fmt.Errorf("exadla: RHS has %d rows, matrix has %d", b.rows, ta.M)
		}
		tb = tile.Deferred(b.rows, b.cols, b.data, b.rows, nb)
	}
	f, x, err := core.Run(c.scheduler(), f, op, ta, tb, then, g)
	if err != nil {
		return nil, nil, err
	}
	return FromSlice(tb.M, tb.N, x), f, nil
}

// factor runs op's tile program (core.OpCholesky or core.OpLU) over A,
// filled by its convert tasks, under every protection the Context armed:
// checkpointing, ABFT and erasure are guards on the one program and
// compose; with none armed it is the plain dataflow factorization. name is
// the entry point, for the error on a non-square A.
func (c *Context) factor(name, op string, a *Matrix) (factored, error) {
	if a.rows != a.cols {
		return factored{}, fmt.Errorf("exadla: %s needs square matrix, got %d×%d", name, a.rows, a.cols)
	}
	t := tile.Deferred(a.rows, a.cols, a.data, a.rows, c.tileSizeFor(op, a.rows))
	f, err := core.Protect(c.scheduler(), op, t, c.ckptOptions(), c.ftOptions())
	return factored{c, f}, err
}

// CholeskyFactor is a reusable tile Cholesky factorization.
type CholeskyFactor struct{ factored }

// Cholesky computes the tile Cholesky factorization A = L·Lᵀ of a symmetric
// positive definite matrix (lower triangle referenced; A untouched).
func (c *Context) Cholesky(a *Matrix) (*CholeskyFactor, error) {
	f, err := c.factor("Cholesky", core.OpCholesky, a)
	if err != nil {
		return nil, err
	}
	return &CholeskyFactor{f}, nil
}

// Solve solves A·X = B using the factorization. B is untouched.
func (f *CholeskyFactor) Solve(b *Matrix) (*Matrix, error) { return f.apply(b, core.ThenSolve) }

// L returns the explicit lower-triangular factor as a Matrix.
func (f *CholeskyFactor) L() *Matrix {
	n, data := f.f.A.N, f.f.A.ToColMajor()
	// Zero the (meaningless) strict upper triangle.
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			data[i+j*n] = 0
		}
	}
	return FromSlice(n, n, data)
}

// SolveSPD factors A (SPD) and solves A·X = B in one dataflow graph, the
// recommended one-shot driver.
func (c *Context) SolveSPD(a, b *Matrix) (*Matrix, error) {
	return c.solve("SolveSPD", core.OpCholesky, a, b, core.ThenSolve)
}

// solve factors the square matrix A with op under the protections the
// Context armed (see factor) and does then on B, or on the factor's own
// tiles when b is nil, all in one dataflow graph.
func (c *Context) solve(name, op string, a, b *Matrix, then core.Then) (*Matrix, error) {
	if b != nil && b.rows != a.rows {
		return nil, fmt.Errorf("exadla: RHS has %d rows, matrix has %d", b.rows, a.rows)
	}
	if a.rows != a.cols {
		return nil, fmt.Errorf("exadla: %s needs square matrix, got %d×%d", name, a.rows, a.cols)
	}
	g := &core.Guards{Ckpt: c.ckptOptions(), FT: c.ftOptions()}
	x, _, err := c.run(nil, op, a, b, c.tileSizeFor(op, a.rows), then, g)
	return x, err
}

// LUFactor is a reusable tile LU factorization with partial pivoting.
type LUFactor struct{ factored }

// LU computes the tile LU factorization of a square matrix with partial
// pivoting: the pivots, and so the stability, of LAPACK's GETRF, with one
// task per panel step factoring the whole tile column (see DESIGN.md).
func (c *Context) LU(a *Matrix) (*LUFactor, error) {
	f, err := c.factor("LU", core.OpLU, a)
	if err != nil {
		return nil, err
	}
	return &LUFactor{f}, nil
}

// Solve solves A·X = B using the factorization. B is untouched.
func (f *LUFactor) Solve(b *Matrix) (*Matrix, error) { return f.apply(b, core.ThenSolve) }

// Solve factors A (general square) and solves A·X = B in one dataflow
// graph.
func (c *Context) Solve(a, b *Matrix) (*Matrix, error) {
	return c.solve("Solve", core.OpLU, a, b, core.ThenSolve)
}

// QRFactor is a reusable tile QR factorization.
type QRFactor struct{ factored }

// QR computes the tile QR factorization of an m×n matrix (A untouched)
// using the flat elimination order. A task that fails permanently (see
// WithChaos and WithTaskRetry) is returned as the scheduler's error. No
// fault-tolerance or checkpoint protection applies.
func (c *Context) QR(a *Matrix) (*QRFactor, error) { return c.qr(core.OpQR, a) }

// QRTree computes the tile QR factorization with a binary reduction tree
// per panel (CAQR order) — shorter critical path on tall matrices at the
// cost of extra reflector storage. The factor behaves identically to QR's,
// and so do its errors.
func (c *Context) QRTree(a *Matrix) (*QRFactor, error) { return c.qr(core.OpQRTree, a) }

// qr factors A with op, the flat or tree QR, filled by its convert tasks.
func (c *Context) qr(op string, a *Matrix) (*QRFactor, error) {
	t := tile.Deferred(a.rows, a.cols, a.data, a.rows, c.tileSizeFor("qr", a.rows))
	f, err := core.Factor(c.scheduler(), op, t, nil, false)
	if err != nil {
		return nil, err
	}
	return &QRFactor{factored{c, f}}, nil
}

// R returns the n×n upper-triangular factor (for m ≥ n).
func (f *QRFactor) R() *Matrix {
	m, n, data := f.f.A.M, f.f.A.N, f.f.A.ToColMajor()
	r := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j && i < m; i++ {
			r.Set(i, j, data[i+j*m])
		}
	}
	return r
}

// QTb applies Qᵀ to a matrix with A's row count (for least-squares
// pipelines). B is untouched.
func (f *QRFactor) QTb(b *Matrix) (*Matrix, error) { return f.apply(b, core.ThenQT) }

// LeastSquares solves min‖A·x − b‖₂ for a tall full-rank matrix A (m ≥ n)
// via tile QR. It returns the n×nrhs solution, or an error if R has an
// exactly zero diagonal entry (A is rank-deficient).
func (c *Context) LeastSquares(a, b *Matrix) (*Matrix, error) {
	return c.leastSquares(a, b, c.tileSizeFor("qr", a.rows), core.OpQR)
}

// leastSquares runs the tile least-squares solver with op, the flat or
// tree QR, on A and B tiled at nb.
func (c *Context) leastSquares(a, b *Matrix, nb int, op string) (*Matrix, error) {
	if a.rows < a.cols {
		return nil, fmt.Errorf("exadla: least squares needs m ≥ n, got %d×%d", a.rows, a.cols)
	}
	full, f, err := c.run(nil, op, a, b, nb, core.ThenSolve, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < a.cols; i++ {
		if f.A.At(i, i) == 0 {
			return nil, fmt.Errorf("exadla: rank-deficient matrix (R[%d][%d] = 0)", i, i)
		}
	}
	x := NewMatrix(a.cols, b.cols)
	for j := 0; j < b.cols; j++ {
		copy(x.data[j*a.cols:(j+1)*a.cols], full.data[j*b.rows:j*b.rows+a.cols])
	}
	return x, nil
}

// MixedResult re-exports the mixed-precision convergence report.
type MixedResult = mixed.Result

// SolveMixed solves A·x = b with float32 tile LU factorization plus float64
// iterative refinement (the dsgesv scheme), falling back to a full float64
// solve for hopelessly conditioned systems. b must have one column. The
// factorization and the solves run on the Context's workers at its tile
// size, traced when tracing is on; no fault-tolerance or checkpoint
// protection applies.
func (c *Context) SolveMixed(a, b *Matrix) (*Matrix, MixedResult, error) {
	return c.solveMixed("SolveMixed", core.OpLU, false, a, b)
}

// SolveMixedHalf solves A·x = b with three precisions: an emulated
// half-precision factorization (fp16 storage, fp32 compute — the
// tensor-core model), float32 correction solves, and float64 residuals.
// It only converges for mildly conditioned systems (cond ≲ 10³) and falls
// back to float64 beyond; see the E9 experiment. It runs on the Context as
// SolveMixed does.
func (c *Context) SolveMixedHalf(a, b *Matrix) (*Matrix, MixedResult, error) {
	return c.solveMixed("SolveMixedHalf", core.OpLU, true, a, b)
}

// SolveMixedSPD is SolveMixed with a tile Cholesky factorization for SPD
// systems (lower triangle referenced).
func (c *Context) SolveMixedSPD(a, b *Matrix) (*Matrix, MixedResult, error) {
	return c.solveMixed("SolveMixedSPD", core.OpCholesky, false, a, b)
}

// solveMixed runs mixed.Solve with op, at fp16 or float32, on the Context's
// scheduler and tile size, for the entry point name, on the square A and
// n×1 b.
func (c *Context) solveMixed(name, op string, fp16 bool, a, b *Matrix) (*Matrix, MixedResult, error) {
	if a.rows != a.cols {
		return nil, MixedResult{}, fmt.Errorf("exadla: %s needs square matrix", name)
	}
	if b.rows != a.rows || b.cols != 1 {
		return nil, MixedResult{}, fmt.Errorf("exadla: %s needs an n×1 RHS", name)
	}
	x := NewMatrix(a.rows, 1)
	res, err := mixed.Solve(c.scheduler(), c.tileSizeFor(op, a.rows), op, fp16, a.rows, a.data, a.rows, b.data, x.data)
	return x, res, err
}

// TSQRLeastSquares solves min‖A·x − b‖₂ with communication-avoiding TSQR
// over about nblocks row blocks (at most m/n). b must have one column.
//
// Deprecated: TSQR is the tree-order tile QR on a single tile column, and
// this runs exactly that: tree least squares at tile size
// max(n, ⌈m/nblocks⌉). Use LeastSquares, or QRTree and QTb.
func (c *Context) TSQRLeastSquares(a, b *Matrix, nblocks int) (*Matrix, error) {
	if b.cols != 1 || b.rows != a.rows {
		return nil, fmt.Errorf("exadla: TSQRLeastSquares needs an m×1 RHS")
	}
	nblocks = max(nblocks, 1)
	return c.leastSquares(a, b, max(a.cols, (a.rows+nblocks-1)/nblocks, 1), core.OpQRTree)
}

// RandomizedLeastSquares solves min‖A·x − b‖₂ with the Blendenpik
// sketch-to-precondition scheme (SRHT sketch of 4n rows + QR
// preconditioner + LSQR), serially on the caller's goroutine. b must have
// one column.
func (c *Context) RandomizedLeastSquares(rng *rand.Rand, a, b *Matrix) (*Matrix, error) {
	if b.cols != 1 || b.rows != a.rows {
		return nil, fmt.Errorf("exadla: RandomizedLeastSquares needs an m×1 RHS")
	}
	x, stats, err := rnd.SolveLS(rng, a.rows, a.cols, a.data, a.rows, b.data)
	if err != nil {
		return nil, err
	}
	if !stats.Converged {
		return nil, fmt.Errorf("exadla: randomized solver did not converge in %d iterations", stats.LSQRIterations)
	}
	return FromSlice(a.cols, 1, x), nil
}

// CondEst estimates the 2-norm condition number of a tall or square matrix.
func (c *Context) CondEst(rng *rand.Rand, a *Matrix) float64 {
	return rnd.CondEst2(rng, a.rows, a.cols, a.data, a.rows, 40)
}

// Invert computes the inverse of a general square matrix via LU with
// partial pivoting (A untouched). Prefer Solve for linear systems —
// explicit inverses cost ~3× a solve and amplify rounding — but covariance
// and sensitivity computations legitimately need them.
func (c *Context) Invert(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("exadla: Invert needs square matrix, got %d×%d", a.rows, a.cols)
	}
	n := a.rows
	f := a.Clone()
	ipiv := make([]int, n)
	if err := lapack.Getrf(n, n, f.data, n, ipiv); err != nil {
		return nil, err
	}
	if err := lapack.Getri(n, f.data, n, ipiv); err != nil {
		return nil, err
	}
	return f, nil
}

// InvertSPD computes the inverse of a symmetric positive definite matrix
// (lower triangle referenced; A untouched) with the tile dataflow pipeline:
// Cholesky → triangular inverse → Wᵀ·W, all one task graph, under the
// protections the Context armed, as SolveSPD. The full symmetric inverse is
// returned.
func (c *Context) InvertSPD(a *Matrix) (*Matrix, error) {
	inv, err := c.solve("InvertSPD", core.OpCholesky, a, nil, core.ThenInvert)
	if err != nil {
		return nil, err
	}
	// Mirror the computed lower triangle.
	n := a.rows
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			inv.data[j+i*n] = inv.data[i+j*n]
		}
	}
	return inv, nil
}
