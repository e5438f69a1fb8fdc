package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// lapackLayout returns the tile LU factor as LAPACK's GETRF stores it: each
// panel step's interchanges, which the tile program applies only right of
// the panel, applied to the L columns left of it as well.
func lapackLayout(f *core.Factors[float64]) []float64 {
	a := f.A
	full := a.ToColMajor()
	for k := 1; k < min(a.MT, a.NT); k++ {
		lapack.Laswp(k*a.NB, full, a.M, k*a.NB, min((k+1)*a.NB, len(f.Piv)), f.Piv)
	}
	return full
}

// TestLUPivotsMatchGetrf: the tile LU chooses exactly lapack.Getrf's
// pivots, on square, tall, wide and ragged tile grids, and its factor is
// LAPACK's to O(n·ε·‖A‖) once the later interchanges are applied to the
// left columns; the LU solve's first sweep, replaying the elimination on A
// itself, leaves U.
// The dataflow run on four workers and the fork–join run on the
// sequential Recorder agree bit for bit. A singular input reports Getrf's
// zero pivot and still factors completely.
func TestLUPivotsMatchGetrf(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	r := sched.New(4)
	defer r.Shutdown()
	for _, nb := range []int{7, 32, 96} {
		for _, d := range [][2]int{{128, 128}, {100, 45}, {48, 80}, {131, 131}} {
			for _, singular := range []bool{false, true} {
				m, n := d[0], d[1]
				name := fmt.Sprintf("%dx%d/nb=%d/singular=%v", m, n, nb, singular)
				aD := matgen.Dense[float64](rng, m, n)
				if singular {
					// A zero column stays exactly zero through the
					// elimination: the zero pivot lands on it.
					for i := 0; i < m; i++ {
						aD[i+(min(m, n)/2+1)*m] = 0
					}
				}
				want := slices.Clone(aD)
				wantPiv := make([]int, min(m, n))
				wantErr := lapack.Getrf(m, n, want, m, wantPiv)

				a := tile.FromColMajor(m, n, aD, m, nb)
				f, err := core.LU(r, a)
				var se, wse *lapack.SingularError
				if errors.As(err, &se) != errors.As(wantErr, &wse) || se != nil && se.Index != wse.Index {
					t.Fatalf("%s: LU error %v, Getrf %v", name, err, wantErr)
				}
				if singular && se == nil {
					t.Fatalf("%s: singular input factored without error", name)
				}
				if !slices.Equal(f.Piv, wantPiv) {
					t.Fatalf("%s: pivots differ from Getrf's\n got %v\nwant %v", name, f.Piv, wantPiv)
				}
				tol := float64(max(m, n)) * 0x1p-52 * lapack.Lange(lapack.InfNorm, m, n, aD, m)
				if diff := maxAbsDiff(lapackLayout(f), want); diff > tol {
					t.Errorf("%s: factor differs from Getrf's by %g (tolerance %g)", name, diff, tol)
				}

				// L⁻¹·P·A = U: the upper trapezoid of the factor, zero below.
				b := tile.FromColMajor(m, n, aD, m, nb)
				core.ApplySweep(r, f, b, 0)
				r.Wait()
				u := a.ToColMajor()
				for j := 0; j < n; j++ {
					for i := j + 1; i < m; i++ {
						u[i+j*m] = 0
					}
				}
				if diff := maxAbsDiff(b.ToColMajor(), u); diff > tol {
					t.Errorf("%s: the elimination sweep on A leaves %g off U (tolerance %g)", name, diff, tol)
				}

				fj := tile.FromColMajor(m, n, aD, m, nb)
				ffj, _ := core.Factor(sched.NewRecorder(), core.OpLU, fj, nil, true)
				if !slices.Equal(ffj.Piv, f.Piv) || maxAbsDiff(fj.ToColMajor(), a.ToColMajor()) != 0 {
					t.Errorf("%s: fork–join on the Recorder is not bitwise the dataflow factor", name)
				}
			}
		}
	}
}

// TestLUBackwardErrorOnCondLadder: the tile Gesv's normwise backward error
// stays within 2× lapack.Gesv's from κ = 1e2 to 1e12.
func TestLUBackwardErrorOnCondLadder(t *testing.T) {
	const n, nb = 200, 32
	rng := rand.New(rand.NewSource(30))
	r := sched.New(4)
	defer r.Shutdown()
	berr := func(aD, x, b []float64) float64 {
		res := slices.Clone(b)
		blas.Gemv(blas.NoTrans, n, n, -1, aD, n, x, 1, 1, res, 1)
		var rmax, xmax, bmax float64
		for i := range res {
			rmax, xmax, bmax = max(rmax, math.Abs(res[i])), max(xmax, math.Abs(x[i])), max(bmax, math.Abs(b[i]))
		}
		return rmax / (lapack.Lange(lapack.InfNorm, n, n, aD, n)*xmax + bmax)
	}
	for cond := 1e2; cond <= 1e12; cond *= 100 {
		aD := matgen.WithCond[float64](rng, n, n, cond)
		bD := matgen.RHSForSolution(n, n, aD, n, matgen.Dense[float64](rng, n, 1))

		lx, lpiv := slices.Clone(bD), make([]int, n)
		if err := lapack.Gesv(n, 1, slices.Clone(aD), n, lpiv, lx, n); err != nil {
			t.Fatalf("κ=%g: lapack.Gesv: %v", cond, err)
		}
		tb := tile.FromColMajor(n, 1, bD, n, nb)
		if _, err := core.Gesv(r, tile.FromColMajor(n, n, aD, n, nb), tb); err != nil {
			t.Fatalf("κ=%g: core.Gesv: %v", cond, err)
		}
		got, ref := berr(aD, tb.ToColMajor(), bD), berr(aD, lx, bD)
		if got > 2*ref {
			t.Errorf("κ=%g: backward error %g, lapack.Gesv's %g", cond, got, ref)
		}
	}
}
