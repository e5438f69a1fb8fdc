// Package mixed implements mixed-precision iterative refinement solvers —
// the library's analogue of LAPACK's dsgesv/dsposv and one of the keynote's
// headline "new rules": do the O(n³) factorization in fast low precision,
// then recover full double-precision accuracy with cheap O(n²) refinement
// sweeps, falling back to a full double-precision solve when the matrix is
// too ill-conditioned for the low-precision factors to act as a contraction.
// The factorization and every solve are core's tile walk at float32 or
// float64; this package owns the rounding, which runs inside the walk's
// convert tasks and takes ‖A‖∞ on the way, the residual tasks and the
// refinement loop.
package mixed

import (
	"errors"
	"math"
	"runtime"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/half"
	"exadla/internal/lapack"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// Result reports how a mixed-precision solve converged.
type Result struct {
	// Iterations is the number of refinement sweeps performed.
	Iterations int
	// Converged is true if the forward-error criterion was met in low
	// precision; false means the solver fell back to full float64.
	Converged bool
	// FellBack is true if the float64 fallback path produced the answer.
	FellBack bool
	// ResidualNorm is the final ∞-norm of b − A·x.
	ResidualNorm float64
}

// MaxIterations bounds the refinement sweeps before declaring failure, the
// same limit (30) reference dsgesv uses.
const MaxIterations = 30

// ErrSingular is returned when both the float32 and the float64
// factorizations encounter an exactly singular pivot.
var ErrSingular = errors.New("mixed: matrix is singular")

// Solve solves A·x = b (A n×n column-major, untouched; x of length n) with
// op's factor — core.OpLU, or core.OpCholesky for an SPD A, of which only
// the lower triangle is referenced — computed by the tile walk on s at tile
// size nb in float32, and refined in float64. When the float32
// factorization fails or the refinement does not converge, the float64
// walk solves the system instead; its error is ErrSingular for a singular
// LU and *lapack.NotPositiveDefiniteError for Cholesky. A correction solve
// or residual that fails (a task failure the scheduler did not retry away)
// reads as a diverged one.
//
// Every O(n²) pass over A runs as tasks on s. The walk's convert tasks
// round A straight into the float32 tiles and record the tiles' absolute
// row sums, from which ‖A‖∞ is reduced (see operand); each residual
// b − A·x is one task per block of nb columns (see blockResidual). Both sum
// their partials in a fixed order, so x is bitwise the same on any number
// of workers.
//
// With fp16 set it is the three-precision scheme modeled on the
// fp16/tensor-core refinement work that followed the keynote: A, scaled by
// its largest entry so the factorization stays inside fp16's tiny exponent
// range, is rounded to half precision, and so is every factor tile, one
// task per tile (fp16 storage, fp32 compute; see roundHalf); correction
// solves run in float32. Because
// ε₁₆ = 2⁻¹⁰, it contracts only for condition numbers up to ~10³ and needs
// more sweeps than the float32 scheme.
func Solve(s sched.Scheduler, nb int, op string, fp16 bool, n int, a []float64, lda int, b, x []float64) (Result, error) {
	lower := op == core.OpCholesky
	residual := blockResidual(s, nb, lower, n, a, lda, b)
	fallback := func() (Result, error) {
		_, x64, err := core.Run(s, nil, op, tile.Deferred(n, n, a, lda, nb), tile.Deferred(n, 1, b, n, nb), core.ThenSolve, nil)
		if errors.As(err, new(*lapack.SingularError)) {
			err = ErrSingular
		}
		if err != nil {
			return Result{FellBack: true}, err
		}
		copy(x, x64)
		r := make([]float64, n)
		residual(x, r)
		return Result{FellBack: true, ResidualNorm: infNorm(r)}, nil
	}

	// Factor A rounded to float32 — scaled and through fp16 on the half
	// rung — by the convert tasks of the factorization's own walk.
	in := &operand{n: n, nb: nb, a: a, lda: lda, lower: lower, fp16: fp16, scale: 1}
	if fp16 {
		if amax := maxAbs(n, a, lda, lower); amax > 0 {
			in.scale = 1 / amax
		}
	}
	f, err := core.Factor(s, op, in.matrix(), nil, false)
	if err == nil && fp16 {
		err = roundHalf(s, f.A)
	}
	if err != nil {
		return fallback()
	}

	r32 := make([]float32, n)
	solve32 := func(r, d []float64) {
		for i, v := range r {
			r32[i] = float32(v * in.scale) // fold in the matrix scaling
		}
		_, d32, err := core.Run(s, f, "", nil, tile.Deferred(n, 1, r32, n, nb), core.ThenSolve, nil)
		if err != nil {
			for i := range d {
				d[i] = math.NaN()
			}
			return
		}
		for i, v := range d32 {
			d[i] = float64(v)
		}
	}
	return refine(n, b, x, in.norm(), residual, solve32, fallback)
}

// roundHalf rounds every tile of the factor a through fp16, the half
// rung's factor storage, as one task per tile on s. The rounding is
// elementwise and idempotent, so the bits are those of a serial pass on
// any number of workers, and a retried task leaves the same tile.
func roundHalf(s sched.Scheduler, a *tile.Matrix[float32]) error {
	for t := range a.MT * a.NT {
		ts := a.Tile(t%a.MT, t/a.MT)
		s.Submit(sched.Task{Name: "round16", Fn: func() { half.RoundSlice32(ts) }})
	}
	return s.WaitErr()
}

// operand is the float32 operand of Solve's factorization: A rounded tile
// by tile inside the walk's convert tasks, which also record the partial
// sums ‖A‖∞ is reduced from, so neither the rounding nor the norm is a
// serial pass. For Cholesky only A's lower triangle is read: strictly
// upper tiles stay zero, and an off-diagonal tile's column sums stand in
// for the rows of its mirror image.
type operand struct {
	n, nb int
	a     []float64
	lda   int
	lower bool
	// fp16 rounds each scale·aᵢⱼ through binary16; otherwise aᵢⱼ is rounded
	// to float32 and scale is 1.
	fp16  bool
	scale float64
	// rows[t] and cols[t] hold the absolute row and column sums of tile
	// t = i+j·MT as its fill recorded them: rows for every tile read, cols
	// for Cholesky's off-diagonal ones.
	rows, cols [][]float64
}

// matrix returns the deferred float32 matrix whose fills round A.
func (o *operand) matrix() *tile.Matrix[float32] {
	m := tile.DeferredFunc(o.n, o.n, o.nb, o.fill)
	o.rows, o.cols = make([][]float64, m.MT*m.NT), make([][]float64, m.MT*m.NT)
	return m
}

// fill rounds tile (i, j) of A into dst and records its sums.
func (o *operand) fill(i, j int, dst []float32) {
	if o.lower && i < j {
		return
	}
	mt, nb := (o.n+o.nb-1)/o.nb, o.nb
	tr, tc := min(nb, o.n-i*nb), min(nb, o.n-j*nb)
	diag := o.lower && i == j
	rows := make([]float64, tr)
	var cols []float64
	if o.lower && !diag {
		cols = make([]float64, tc)
	}
	for c := range tc {
		col := o.a[i*nb+(j*nb+c)*o.lda:][:tr]
		first := 0
		if diag {
			first = c
		}
		out := dst[c*tr+first : (c+1)*tr]
		if o.fp16 {
			for r, v := range col[first:] {
				out[r] = half.FromFloat64(v * o.scale).Float32()
			}
		} else {
			for r, v := range col[first:] {
				out[r] = float32(v)
			}
		}
		// A diagonal tile's strictly lower entry (r, c) also stands for
		// (c, r), in row c.
		if diag {
			rows[c] += math.Abs(col[c])
			first++
		}
		var sum float64
		for r, v := range col[first:] {
			av := math.Abs(v)
			rows[first+r] += av
			sum += av
		}
		switch {
		case diag:
			rows[c] += sum
		case cols != nil:
			cols[c] = sum
		}
	}
	o.rows[i+j*mt], o.cols[i+j*mt] = rows, cols
}

// norm returns ‖A‖∞ from the sums the fills recorded, adding each row's
// partials in tile order: the same bits on any number of workers.
func (o *operand) norm() float64 {
	mt := (o.n + o.nb - 1) / o.nb
	var anorm float64
	for i := range mt {
		sums := make([]float64, min(o.nb, o.n-i*o.nb))
		for j := range mt {
			part := o.rows[i+j*mt]
			if j > i && o.lower {
				part = o.cols[j+i*mt]
			}
			for r, v := range part {
				sums[r] += v
			}
		}
		for _, v := range sums {
			anorm = max(anorm, v) // max propagates NaN
		}
	}
	return anorm
}

// maxAbs returns max |aᵢⱼ| over A, its lower triangle only with lower set.
func maxAbs(n int, a []float64, lda int, lower bool) float64 {
	var m float64
	for j := range n {
		lo := 0
		if lower {
			lo = j
		}
		for _, v := range a[lo+j*lda : n+j*lda] {
			m = max(m, math.Abs(v))
		}
	}
	return m
}

// SolveCholesky solves the SPD system A·x = b as Solve does with
// core.OpCholesky in float32, on a runtime of GOMAXPROCS workers at the
// library's default tile size. Only the lower triangle of A is referenced.
func SolveCholesky(n int, a []float64, lda int, b, x []float64) (Result, error) {
	rt := sched.New(runtime.GOMAXPROCS(0))
	defer rt.Shutdown()
	return Solve(rt, core.DefaultTileSize, core.OpCholesky, false, n, a, lda, b, x)
}

// refine runs the double-precision refinement loop around a low-precision
// solve of A·x = b: residual(x, r) stores b − A·x in r, anorm is ‖A‖∞,
// and solve32 maps a residual to a correction. The iterate has converged
// when ‖r‖ ≤ ‖x‖·‖A‖·ε·√n (dsgesv's test). A non-finite residual or
// iterate means the low-precision factors diverged, and the float64
// fallback answers instead — as it does after MaxIterations sweeps.
func refine(n int, b, x []float64, anorm float64, residual func(x, r []float64), solve32 func(r, d []float64), fallback func() (Result, error)) (Result, error) {
	eps := lapack.Epsilon[float64]()
	sqrtN := math.Sqrt(float64(n))

	solve32(b, x)
	r := make([]float64, n)
	d := make([]float64, n)
	var res Result
	for it := 1; it <= MaxIterations; it++ {
		res.Iterations = it
		residual(x, r)
		rnorm, xnorm := infNorm(r), infNorm(x)
		res.ResidualNorm = rnorm
		if m := max(rnorm, xnorm); math.IsInf(m, 1) || math.IsNaN(m) {
			break
		}
		if rnorm <= xnorm*anorm*eps*sqrtN {
			res.Converged = true
			return res, nil
		}
		solve32(r, d)
		blas.Axpy(n, 1, d, 1, x, 1)
	}
	fres, err := fallback()
	fres.Iterations = res.Iterations
	return fres, err
}

// blockResidual returns the function r ← b − A·x of refine (A n×n with leading
// dimension lda, its lower triangle holding a symmetric A with lower set)
// that runs as one task per block of nb columns on s. Each task clears and
// writes its own partial product with blas.AxpyF64 and blas.DotF64, whose
// order depends on n alone, so a retried task leaves the same one, and r
// is b minus the partials in block order: the same bits on any number of
// workers and at any alignment of A, x and b. A task failure the
// scheduler did not retry away leaves r NaN.
func blockResidual(s sched.Scheduler, nb int, lower bool, n int, a []float64, lda int, b []float64) func(x, r []float64) {
	parts := make([][]float64, (n+nb-1)/nb)
	for k := range parts {
		parts[k] = make([]float64, n)
	}
	return func(x, r []float64) {
		for k, p := range parts {
			c0, c1 := k*nb, min((k+1)*nb, n)
			s.Submit(sched.Task{Name: "residual", Fn: func() {
				clear(p)
				if lower {
					symvColumns(n, c0, c1, a, lda, x, p)
					return
				}
				for j := c0; j < c1; j++ {
					blas.AxpyF64(x[j], a[j*lda:j*lda+n], p)
				}
			}})
		}
		if s.WaitErr() != nil {
			for i := range r[:n] {
				r[i] = math.NaN()
			}
			return
		}
		copy(r, b[:n])
		for _, p := range parts {
			for i, v := range p {
				r[i] -= v
			}
		}
	}
}

// symvColumns adds to p the share of A·x that columns c0…c1−1 of the
// symmetric A, held in its lower triangle, contribute: Symv's column loop,
// an axpy below the diagonal and a dot into the column's own row,
// restricted to those columns.
func symvColumns(n, c0, c1 int, a []float64, lda int, x, p []float64) {
	for j := c0; j < c1; j++ {
		col, xj := a[j*lda+j:j*lda+n], x[j]
		p[j] += col[0]*xj + blas.DotF64(col[1:], x[j+1:n])
		blas.AxpyF64(xj, col[1:], p[j+1:n])
	}
}

// infNorm returns max |vᵢ|, or NaN if any entry is NaN.
func infNorm(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = max(m, math.Abs(x)) // max propagates NaN
	}
	return m
}
