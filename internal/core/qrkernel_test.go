package core

import (
	"math"
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/lapack"
)

// Tests of the QR tile kernels themselves: the recursive tsqrt against its
// unblocked leaf loop, and the kernels' steady-state allocation freedom.

const kernelSentinel = 1e30

// tsqrtInput builds the operands of one tsqrt call with padded leading
// dimensions: a well-conditioned upper triangle R0 (what a geqrt leaves)
// over a sentinel strict lower triangle, an m2×n Gaussian A2, and a T
// filled with the sentinel.
func tsqrtInput(rng *rand.Rand, n, m2 int) (r, a2, t []float64, ldr, lda2, ldt int) {
	ldr, lda2, ldt = n+2, m2+3, n+1
	r = make([]float64, ldr*n)
	for j := 0; j < n; j++ {
		for i := 0; i < ldr; i++ {
			switch {
			case i < j:
				r[i+j*ldr] = rng.NormFloat64() / float64(n)
			case i == j:
				r[i+j*ldr] = 2 + rng.Float64()
			default:
				r[i+j*ldr] = kernelSentinel
			}
		}
	}
	a2 = make([]float64, lda2*n)
	for j := 0; j < n; j++ {
		for i := 0; i < lda2; i++ {
			a2[i+j*lda2] = kernelSentinel
			if i < m2 {
				a2[i+j*lda2] = rng.NormFloat64()
			}
		}
	}
	t = make([]float64, ldt*n)
	for i := range t {
		t[i] = kernelSentinel
	}
	return r, a2, t, ldr, lda2, ldt
}

// maxDiff returns the largest |x−y| over the rows lo(j)…hi(j)−1 of the n
// columns of two matrices sharing the leading dimension ld.
func maxDiff(n, ld int, x, y []float64, rows func(j int) (lo, hi int)) float64 {
	var d float64
	for j := 0; j < n; j++ {
		lo, hi := rows(j)
		for i := lo; i < hi; i++ {
			d = max(d, math.Abs(x[i+j*ld]-y[i+j*ld]))
		}
	}
	return d
}

// TestTsqrtMatchesUnblocked checks the recursive tsqrt against its leaf
// loop tsqrt2 run on the whole panel, for every width up to 17 and a few
// recursion depths over 1-, 5-, 64- and 96-row tiles: the same R, vectors
// and T; T as dlarft's formula gives it for those vectors and τ; and
// Q·[R; 0] = [R0; A2] with Q = I − V·T·Vᵀ orthogonal — all at O(ε), and
// nothing written outside R's upper triangle, A2 or T's upper triangle.
func TestTsqrtMatchesUnblocked(t *testing.T) {
	const eps = 0x1p-52
	ns := []int{33, 64, 96}
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	upperRows := func(j int) (int, int) { return 0, j + 1 }
	for _, m2 := range []int{1, 5, 64, 96} {
		for _, n := range ns {
			rng := rand.New(rand.NewSource(int64(1000*n + m2)))
			r0, a20, t0, ldr, lda2, ldt := tsqrtInput(rng, n, m2)
			clone := func(x []float64) []float64 { return append([]float64(nil), x...) }
			r, a2, tm := clone(r0), clone(a20), clone(t0)
			ru, a2u, tu := clone(r0), clone(a20), clone(t0)
			tsqrt(n, m2, r, ldr, a2, lda2, tm, ldt)
			tsqrt2(n, m2, ru, ldr, a2u, lda2, tu, ldt)

			tol := 8 * float64(n+m2) * eps
			if d := maxDiff(n, ldr, r, ru, upperRows); d > 3*tol {
				t.Errorf("n=%d m2=%d: R differs from the unblocked loop's by %g", n, m2, d)
			}
			if d := maxDiff(n, lda2, a2, a2u, func(int) (int, int) { return 0, m2 }); d > tol {
				t.Errorf("n=%d m2=%d: V2 differs from the unblocked loop's by %g", n, m2, d)
			}
			if d := maxDiff(n, ldt, tm, tu, upperRows); d > tol {
				t.Errorf("n=%d m2=%d: T differs from the unblocked loop's by %g", n, m2, d)
			}
			// Nothing outside the outputs is written.
			for j := 0; j < n; j++ {
				for i := j + 1; i < ldr; i++ {
					if r[i+j*ldr] != kernelSentinel || (i < ldt && tm[i+j*ldt] != kernelSentinel) {
						t.Fatalf("n=%d m2=%d: (%d,%d) below R's or T's diagonal was written", n, m2, i, j)
					}
				}
				for i := m2; i < lda2; i++ {
					if a2[i+j*lda2] != kernelSentinel {
						t.Fatalf("n=%d m2=%d: A2 padding (%d,%d) was written", n, m2, i, j)
					}
				}
			}

			// T from dlarft's formula: T[0:i, i] = −τᵢ·T[0:i, 0:i]·(V[:, 0:i]ᵀ·vᵢ),
			// where the identity tops of the vectors are orthogonal, so only V2
			// contributes.
			ref := make([]float64, n*n)
			for i := 0; i < n; i++ {
				tau := tm[i+i*ldt]
				for j := 0; j < i; j++ {
					ref[j+i*n] = -tau * blas.Dot(m2, a2[j*lda2:], 1, a2[i*lda2:], 1)
				}
				blas.Trmv(blas.Upper, blas.NoTrans, blas.NonUnit, i, ref, n, ref[i*n:], 1)
				ref[i+i*n] = tau
			}
			if d := maxDiff(n, n, compact(n, n, tm, ldt), ref, upperRows); d > tol {
				t.Errorf("n=%d m2=%d: T differs from dlarft's formula by %g", n, m2, d)
			}

			// Q = I − V·T·Vᵀ over the stacked (n+m2) rows, V = [I; V2].
			N := n + m2
			v := make([]float64, N*n)
			for j := 0; j < n; j++ {
				v[j+j*N] = 1
				copy(v[n+j*N:(j+1)*N], a2[j*lda2:j*lda2+m2])
			}
			tk := make([]float64, n*n)
			lapack.Lacpy(blas.Upper, n, n, tm, ldt, tk, n)
			vt := make([]float64, N*n)
			blas.Gemm(blas.NoTrans, blas.NoTrans, N, n, n, 1, v, N, tk, n, 0, vt, N)
			q := make([]float64, N*N)
			for i := 0; i < N; i++ {
				q[i+i*N] = 1
			}
			blas.Gemm(blas.NoTrans, blas.Trans, N, N, n, -1, vt, N, v, N, 1, q, N)
			qtq := make([]float64, N*N)
			blas.Gemm(blas.Trans, blas.NoTrans, N, N, N, 1, q, N, q, N, 0, qtq, N)
			for i := 0; i < N; i++ {
				qtq[i+i*N]--
			}
			if d := maxDiff(N, N, qtq, make([]float64, N*N), func(int) (int, int) { return 0, N }); d > tol {
				t.Errorf("n=%d m2=%d: ‖QᵀQ − I‖ = %g", n, m2, d)
			}
			rs := make([]float64, N*n)
			lapack.Lacpy(blas.Upper, n, n, r, ldr, rs, N)
			qr := make([]float64, N*n)
			blas.Gemm(blas.NoTrans, blas.NoTrans, N, n, N, 1, q, N, rs, N, 0, qr, N)
			a0 := make([]float64, N*n)
			lapack.Lacpy(blas.Upper, n, n, r0, ldr, a0, N)
			lapack.Lacpy(lapack.General, m2, n, a20, lda2, a0[n:], N)
			var norm float64
			for _, x := range a0 {
				norm = max(norm, math.Abs(x))
			}
			if d := maxDiff(n, N, qr, a0, func(int) (int, int) { return 0, N }); d > tol*norm {
				t.Errorf("n=%d m2=%d: ‖Q·[R; 0] − [R0; A2]‖ = %g", n, m2, d)
			}
		}
	}
}

// compact copies the m×n/ld matrix x to a dense m×n one.
func compact(m, n int, x []float64, ld int) []float64 {
	out := make([]float64, m*n)
	lapack.Lacpy(lapack.General, m, n, x, ld, out, m)
	return out
}

// TestQRKernelsZeroAllocSteadyState asserts that, once the pool is warm,
// one flat panel step at nb = 96 — geqrt, unmqr, tsqrt and tsmqr — and one
// tree merge — ttqrt and ttmqr — allocate nothing.
func TestQRKernelsZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally bypasses caching under the race detector")
	}
	const nb = 96
	rng := rand.New(rand.NewSource(61))
	tileOf := func() []float64 {
		x := make([]float64, nb*nb)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x
	}
	a0, a20, a30, c10, c20 := tileOf(), tileOf(), tileOf(), tileOf(), tileOf()
	a, a2, a3, c1, c2 := make([]float64, nb*nb), make([]float64, nb*nb), make([]float64, nb*nb), make([]float64, nb*nb), make([]float64, nb*nb)
	t1, t2, t3 := make([]float64, nb*nb), make([]float64, nb*nb), make([]float64, nb*nb)
	step := func() {
		copy(a, a0)
		copy(a2, a20)
		copy(a3, a30)
		copy(c1, c10)
		copy(c2, c20)
		lapack.Geqrt(nb, nb, a, nb, t1, nb)
		unmqr(nb, nb, nb, a, nb, t1, nb, c1, nb)
		tsqrt(nb, nb, a, nb, a2, nb, t2, nb)
		tsmqr(blas.Trans, nb, nb, nb, a2, nb, t2, nb, c1, nb, c2, nb)
		// Merge a second geqrt triangle into the first, as a tree does.
		lapack.Geqrt(nb, nb, a3, nb, t3, nb)
		ttqrt(nb, nb, a, nb, a3, nb, t3, nb)
		ttmqr(blas.Trans, nb, nb, nb, a3, nb, t3, nb, c1, nb, c2, nb)
	}
	step() // warm the pool
	if avg := testing.AllocsPerRun(10, step); avg != 0 {
		t.Errorf("geqrt+unmqr+tsqrt+tsmqr+ttqrt+ttmqr at nb=%d allocate %.1f objects per step in steady state", nb, avg)
	}
}
