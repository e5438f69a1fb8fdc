package mixed

import (
	"math"
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/half"
	"exadla/internal/lapack"
	"exadla/internal/sched"
)

// rung is one precision scheme of Solve with its op.
type rung struct {
	name        string
	lower, fp16 bool
}

var rungs = []rung{{"lu32", false, false}, {"chol32", true, false}, {"lu16", false, true}, {"chol16", true, true}}

// taskSizes are the orders the task tests run at each tile size nb: one
// element, one short of a tile, one tile, one over, and many tiles.
func taskSizes(nb int) []int { return []int{1, nb - 1, nb, nb + 1, 1000} }

// testOperator returns a random n×n A of mixed signs and magnitudes; with
// lower set it is symmetric in its lower triangle and NaN in its strict
// upper one, which a symmetric solve must never read.
func testOperator(rng *rand.Rand, n int, lower bool) []float64 {
	a := make([]float64, n*n)
	for j := range n {
		for i := range n {
			switch {
			case lower && i < j:
				a[i+j*n] = math.NaN()
			default:
				a[i+j*n] = rng.NormFloat64() * math.Exp(4*rng.Float64())
			}
		}
	}
	return a
}

// dominantSystem returns a random symmetric, diagonally dominant n×n A
// and a random b: every rung converges on it.
func dominantSystem(rng *rand.Rand, n int) (a, b []float64) {
	a = make([]float64, n*n)
	for j := range n {
		for i := range j + 1 {
			v := rng.NormFloat64()
			a[i+j*n], a[j+i*n] = v, v
		}
		a[j+j*n] += 2 * float64(n)
	}
	b = make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, b
}

// TestOperandRoundsAndNorms: the convert tasks' fill rounds every element
// it reads to float32(v), or to half.FromFloat64(v·scale).Float32() on the
// fp16 rung, which pins the factor's bits; it leaves a
// Cholesky operand's strict upper triangle zero, and records sums whose
// reduction is ‖A‖∞ to within n·ε of Lange (Lansy for Cholesky), bitwise
// the same on one worker and on two.
func TestOperandRoundsAndNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	eps := lapack.Epsilon[float64]()
	for _, nb := range []int{48, 96} {
		for _, n := range taskSizes(nb) {
			for _, rg := range rungs {
				a := testOperator(rng, n, rg.lower)
				want := lapack.Lange(lapack.InfNorm, n, n, a, n)
				if rg.lower {
					want = lapack.Lansy(lapack.InfNorm, blas.Lower, n, a, n)
				}
				scale := 1.0
				if rg.fp16 {
					scale = 1 / maxAbs(n, a, n, rg.lower)
				}
				rounded := make([]float32, n*n)
				for j := range n {
					for i := range n {
						switch v := a[i+j*n]; {
						case rg.lower && i < j:
						case rg.fp16:
							rounded[i+j*n] = half.FromFloat64(v * scale).Float32()
						default:
							rounded[i+j*n] = float32(v)
						}
					}
				}
				var norms []float64
				for _, workers := range []int{1, 2} {
					in := &operand{n: n, nb: nb, a: a, lda: n, lower: rg.lower, fp16: rg.fp16, scale: scale}
					m := in.matrix()
					rt := sched.New(workers)
					for _, fill := range m.Fills() {
						rt.Submit(sched.Task{Name: "convert", Fn: fill})
					}
					rt.Wait()
					rt.Shutdown()
					for k, v := range m.ToColMajor() {
						if math.Float32bits(v) != math.Float32bits(rounded[k]) {
							t.Fatalf("nb=%d n=%d %s: element (%d,%d) = %v, want %v", nb, n, rg.name, k%n, k/n, v, rounded[k])
						}
					}
					norms = append(norms, in.norm())
				}
				if d := math.Abs(norms[0] - want); !(d <= float64(n)*eps*want) {
					t.Errorf("nb=%d n=%d %s: ‖A‖∞ = %v, reference %v", nb, n, rg.name, norms[0], want)
				}
				if math.Float64bits(norms[0]) != math.Float64bits(norms[1]) {
					t.Errorf("nb=%d n=%d %s: ‖A‖∞ = %v on 1 worker, %v on 2", nb, n, rg.name, norms[0], norms[1])
				}
			}
		}
	}
}

// TestBlockResidualMatchesBlas: the residual tasks compute b − A·x to
// within n·ε of the serial Gemv (Symv over the lower triangle for
// Cholesky), relative to ‖A‖∞‖x‖∞ + ‖b‖∞, bitwise the same on one worker
// and on two. The orders include every tail length (n mod 8) of the
// float64 dot and axpy kernels the two residual bodies run on.
func TestBlockResidualMatchesBlas(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	eps := lapack.Epsilon[float64]()
	for _, nb := range []int{48, 96} {
		for _, n := range []int{1, 7, 8, 9, nb - 1, nb, nb + 1, 95, 97, 1000} {
			for _, lower := range []bool{false, true} {
				a := testOperator(rng, n, lower)
				x, b := make([]float64, n), make([]float64, n)
				for i := range n {
					x[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
				}
				want := append([]float64(nil), b...)
				anorm := lapack.Lange(lapack.InfNorm, n, n, a, n)
				if lower {
					blas.Symv(blas.Lower, n, -1, a, n, x, 1, 1, want, 1)
					anorm = lapack.Lansy(lapack.InfNorm, blas.Lower, n, a, n)
				} else {
					blas.Gemv(blas.NoTrans, n, n, -1, a, n, x, 1, 1, want, 1)
				}
				bound := float64(n) * eps * (anorm*infNorm(x) + infNorm(b))
				var rs [][]float64
				for _, workers := range []int{1, 2} {
					rt := sched.New(workers)
					r := make([]float64, n)
					blockResidual(rt, nb, lower, n, a, n, b)(x, r)
					rt.Shutdown()
					rs = append(rs, r)
				}
				for i := range n {
					if d := math.Abs(rs[0][i] - want[i]); !(d <= bound) {
						t.Fatalf("nb=%d n=%d lower=%v: r[%d] = %v, reference %v", nb, n, lower, i, rs[0][i], want[i])
					}
					if math.Float64bits(rs[0][i]) != math.Float64bits(rs[1][i]) {
						t.Fatalf("nb=%d n=%d lower=%v: r[%d] = %v on 1 worker, %v on 2", nb, n, lower, i, rs[0][i], rs[1][i])
					}
				}
			}
		}
	}
}

// TestSolveBitwiseAcrossAlignments: the whole solve returns the same x and
// report whatever the alignment of A, b and x: the float64 kernels under
// the residual never peel for alignment.
func TestSolveBitwiseAcrossAlignments(t *testing.T) {
	const n, nb = 97, 48
	a0, b0 := dominantSystem(rand.New(rand.NewSource(66)), n)
	rt := sched.New(2)
	defer rt.Shutdown()
	for _, op := range []string{core.OpLU, core.OpCholesky} {
		var x0 []float64
		var res0 Result
		for off := range 4 {
			a := append(make([]float64, off), a0...)[off:]
			b := append(make([]float64, off), b0...)[off:]
			x := make([]float64, n+off)[off:]
			res, err := Solve(rt, nb, op, false, n, a, n, b, x)
			if err != nil {
				t.Fatalf("%s at offset %d: %v", op, off, err)
			}
			if off == 0 {
				x0, res0 = x, res
				continue
			}
			if res != res0 {
				t.Errorf("%s: report at offset %d %+v, at offset 0 %+v", op, off, res, res0)
			}
			if i := firstDiff(x, x0); i >= 0 {
				t.Fatalf("%s: x[%d] = %v at offset %d, %v at offset 0", op, i, x[i], off, x0[i])
			}
		}
	}
}

// firstDiff returns the first index where x and y differ in their bits,
// or −1.
func firstDiff(x, y []float64) int {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

// TestBlockResidualFailureReadsNaN: a residual task the scheduler does not
// retry away leaves the residual NaN, which refine treats as divergence.
func TestBlockResidualFailureReadsNaN(t *testing.T) {
	const n, nb = 100, 48
	rng := rand.New(rand.NewSource(63))
	a := testOperator(rng, n, false)
	x, b := make([]float64, n), make([]float64, n)
	rt := sched.New(2, sched.WithChaos(sched.Chaos{Seed: 64, FailProb: 1}))
	defer rt.Shutdown()
	r := make([]float64, n)
	blockResidual(rt, nb, false, n, a, n, b)(x, r)
	if m := infNorm(r); !math.IsNaN(m) {
		t.Errorf("residual after failed tasks has ‖r‖∞ = %v, want NaN", m)
	}
}

// TestSolveTasksBitwiseAcrossWorkers: the whole solve, on each rung,
// returns the same x and report on one worker as on two.
func TestSolveTasksBitwiseAcrossWorkers(t *testing.T) {
	const n, nb = 300, 48
	rng := rand.New(rand.NewSource(65))
	for _, rg := range rungs {
		a, b := dominantSystem(rng, n)
		op := core.OpLU
		if rg.lower {
			op = core.OpCholesky
		}
		var xs [][]float64
		var res []Result
		for _, workers := range []int{1, 2} {
			rt := sched.New(workers)
			x := make([]float64, n)
			r, err := Solve(rt, nb, op, rg.fp16, n, a, n, b, x)
			rt.Shutdown()
			if err != nil {
				t.Fatalf("%s on %d workers: %v", rg.name, workers, err)
			}
			xs, res = append(xs, x), append(res, r)
		}
		if res[0] != res[1] || !res[0].Converged {
			t.Errorf("%s: report on 1 worker %+v, on 2 %+v", rg.name, res[0], res[1])
		}
		for i := range n {
			if math.Float64bits(xs[0][i]) != math.Float64bits(xs[1][i]) {
				t.Fatalf("%s: x[%d] = %v on 1 worker, %v on 2", rg.name, i, xs[0][i], xs[1][i])
			}
		}
	}
}
