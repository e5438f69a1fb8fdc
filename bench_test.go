// Benchmarks regenerating the timing side of the experiment suite (E1–E8 in
// DESIGN.md). Each experiment's full table — including the simulated
// scaling series — is produced by cmd/exabench; these testing.B targets
// cover the directly measurable kernels so `go test -bench=.` tracks them.
package exadla_test

import (
	"fmt"
	"math/rand"
	"testing"

	"exadla"
	"exadla/internal/batch"
	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/dist"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/rnd"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// reportGFLOPS attaches a flops/s metric to the benchmark.
func reportGFLOPS(b *testing.B, flops float64) {
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// ---- Substrate: GEMM ----

func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{128, 256, 512} {
		a := matgen.Dense[float64](rng, n, n)
		bb := matgen.Dense[float64](rng, n, n)
		c := make([]float64, n*n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blas.Gemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, bb, n, 0, c, n)
			}
			reportGFLOPS(b, 2*float64(n)*float64(n)*float64(n))
		})
	}
}

// BenchmarkGemmAxpy tracks the pre-packing axpy path — the baseline the
// packed register-blocked kernel is graded against.
func BenchmarkGemmAxpy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{128, 256, 512} {
		a := matgen.Dense[float64](rng, n, n)
		bb := matgen.Dense[float64](rng, n, n)
		c := make([]float64, n*n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blas.GemmAxpy(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, bb, n, 0, c, n)
			}
			reportGFLOPS(b, 2*float64(n)*float64(n)*float64(n))
		})
	}
}

func BenchmarkGemmFloat32(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 512
	a := matgen.Dense[float32](rng, n, n)
	bb := matgen.Dense[float32](rng, n, n)
	c := make([]float32, n*n)
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blas.Gemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, bb, n, 0, c, n)
		}
		reportGFLOPS(b, 2*float64(n)*float64(n)*float64(n))
	})
}

// ---- E1: tile Cholesky, dataflow vs fork-join (real runtime) ----

func benchCholesky(b *testing.B, n, nb int, forkJoin bool) {
	rng := rand.New(rand.NewSource(int64(n)))
	aD := matgen.DiagDomSPD[float64](rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := tile.FromColMajor(n, n, aD, n, nb)
		r := sched.New(4)
		b.StartTimer()
		_, err := core.Factor(r, core.OpCholesky, a, nil, forkJoin)
		b.StopTimer()
		r.Shutdown()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	reportGFLOPS(b, float64(n)*float64(n)*float64(n)/3)
}

func BenchmarkE1_CholeskyDataflow(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchCholesky(b, n, 96, false) })
	}
}

func BenchmarkE1_CholeskyForkJoin(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchCholesky(b, n, 96, true) })
	}
}

// ---- E3: mixed precision vs FP64 solve ----

func BenchmarkE3_SolveFP64(b *testing.B) {
	for _, n := range []int{256, 512} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := matgen.WithCond[float64](rng, n, n, 100)
		rhs := matgen.Dense[float64](rng, n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				af := append([]float64(nil), a...)
				x := append([]float64(nil), rhs...)
				ipiv := make([]int, n)
				b.StartTimer()
				if err := lapack.Gesv(n, 1, af, n, ipiv, x, n); err != nil {
					b.Fatal(err)
				}
			}
			reportGFLOPS(b, 2*float64(n)*float64(n)*float64(n)/3)
		})
	}
}

func BenchmarkE3_SolveMixed(b *testing.B) {
	ctx := exadla.NewContext()
	defer ctx.Close()
	for _, n := range []int{256, 512} {
		rng := rand.New(rand.NewSource(int64(n)))
		a := exadla.FromSlice(n, n, matgen.WithCond[float64](rng, n, n, 100))
		rhs := exadla.FromSlice(n, 1, matgen.Dense[float64](rng, n, 1))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ctx.SolveMixed(a, rhs); err != nil {
					b.Fatal(err)
				}
			}
			reportGFLOPS(b, 2*float64(n)*float64(n)*float64(n)/3)
		})
	}
}

// ---- E4: Householder QR vs TSQR on tall-skinny ----

func BenchmarkE4_HouseholderQR(b *testing.B) {
	for _, m := range []int{20000, 50000} {
		n := 32
		rng := rand.New(rand.NewSource(int64(m)))
		a := matgen.Dense[float64](rng, m, n)
		tau := make([]float64, n)
		b.Run(fmt.Sprintf("m=%d_n=%d", m, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				af := append([]float64(nil), a...)
				b.StartTimer()
				lapack.Geqrf(m, n, af, m, tau)
			}
			reportGFLOPS(b, 2*float64(m)*float64(n)*float64(n))
		})
	}
}

func BenchmarkE4_TSQR(b *testing.B) {
	for _, m := range []int{20000, 50000} {
		n := 32
		rng := rand.New(rand.NewSource(int64(m)))
		a := matgen.Dense[float64](rng, m, n)
		b.Run(fmt.Sprintf("m=%d_n=%d_blocks=16", m, n), func(b *testing.B) {
			// TSQR is the tree-order tile QR on one tile column.
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ta := tile.FromColMajor(m, n, a, m, (m+15)/16)
				b.StartTimer()
				r := sched.New(1)
				core.QRTree(r, ta)
				r.Shutdown()
			}
			reportGFLOPS(b, 2*float64(m)*float64(n)*float64(n))
		})
	}
}

// BenchmarkTallLeastSquares times least squares through core.Run on
// ls_tall's 4096×256 shape at nb = 96 on two workers, with the flat (OpQR)
// and the binary-tree (OpQRTree) panel reduction: the cost a shape rule
// that picks the tree must beat.
func BenchmarkTallLeastSquares(b *testing.B) {
	const m, n, nb = 4096, 256, 96
	rng := rand.New(rand.NewSource(13))
	a := matgen.Dense[float64](rng, m, n)
	rhs := matgen.Dense[float64](rng, m, 1)
	r := sched.New(2)
	defer r.Shutdown()
	for _, c := range []struct{ name, op string }{{"flat", core.OpQR}, {"tree", core.OpQRTree}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ta, tb := tile.Deferred(m, n, a, m, nb), tile.Deferred(m, 1, rhs, m, nb)
				if _, _, err := core.Run(r, nil, c.op, ta, tb, core.ThenSolve, nil); err != nil {
					b.Fatal(err)
				}
			}
			reportGFLOPS(b, 2*float64(m)*n*n-2*float64(n)*n*n/3)
		})
	}
}

// ---- E5: tile-size sweep ----

func BenchmarkE5_TileSweep(b *testing.B) {
	n := 512
	rng := rand.New(rand.NewSource(5))
	aD := matgen.DiagDomSPD[float64](rng, n)
	for _, nb := range []int{32, 64, 96, 128, 256} {
		b.Run(fmt.Sprintf("nb=%d", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := tile.FromColMajor(n, n, aD, n, nb)
				r := sched.New(1)
				b.StartTimer()
				if err := core.Cholesky(r, a); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				r.Shutdown()
				b.StartTimer()
			}
			reportGFLOPS(b, float64(n)*float64(n)*float64(n)/3)
		})
	}
}

// ---- E6: ABFT overhead ----

func BenchmarkE6_CholeskyPlain(b *testing.B) {
	benchE6(b, func(r sched.Scheduler, a *tile.Matrix[float64]) error { return core.Cholesky(r, a) })
}

func BenchmarkE6_CholeskyABFT(b *testing.B) {
	benchE6(b, func(r sched.Scheduler, a *tile.Matrix[float64]) error {
		_, err := core.Protect(r, core.OpCholesky, a, nil, &core.FTOptions{})
		return err
	})
}

// benchE6 times one tile Cholesky variant on a 4-worker runtime with
// retries, so the plain and guarded runs differ only in the guard.
func benchE6(b *testing.B, factor func(sched.Scheduler, *tile.Matrix[float64]) error) {
	const n, nb = 384, 96
	rng := rand.New(rand.NewSource(6))
	aD := matgen.DiagDomSPD[float64](rng, n)
	r := sched.New(4, sched.WithRetry(3, 0))
	defer r.Shutdown()
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			a := tile.FromColMajor(n, n, aD, n, nb)
			b.StartTimer()
			if err := factor(r, a); err != nil {
				b.Fatal(err)
			}
		}
		reportGFLOPS(b, float64(n)*float64(n)*float64(n)/3)
	})
}

// ---- E7: batched vs looped tiny factorizations ----

func BenchmarkE7_Loop(b *testing.B) {
	benchBatch(b, func(n int, mats [][]float64) {
		batch.PotrfSeq(n, mats)
	})
}

func BenchmarkE7_Batched(b *testing.B) {
	r := sched.New(4)
	defer r.Shutdown()
	benchBatch(b, func(n int, mats [][]float64) {
		batch.Potrf(r, n, mats, batch.Options{})
	})
}

func benchBatch(b *testing.B, run func(n int, mats [][]float64)) {
	const count = 1000
	for _, n := range []int{8, 32} {
		rng := rand.New(rand.NewSource(int64(n)))
		orig := make([][]float64, count)
		for i := range orig {
			orig[i] = matgen.DiagDomSPD[float64](rng, n)
		}
		b.Run(fmt.Sprintf("n=%d_count=%d", n, count), func(b *testing.B) {
			mats := make([][]float64, count)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := range orig {
					mats[k] = append([]float64(nil), orig[k]...)
				}
				b.StartTimer()
				run(n, mats)
			}
			reportGFLOPS(b, float64(count)*float64(n)*float64(n)*float64(n)/3)
		})
	}
}

// ---- E8: direct QR vs randomized least squares ----

func BenchmarkE8_DirectQR(b *testing.B) {
	m, n := 50000, 100
	rng := rand.New(rand.NewSource(8))
	a := matgen.Dense[float64](rng, m, n)
	rhs := matgen.Dense[float64](rng, m, 1)
	b.Run(fmt.Sprintf("m=%d_n=%d", m, n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			af := append([]float64(nil), a...)
			bf := append([]float64(nil), rhs...)
			b.StartTimer()
			if err := lapack.Gels(m, n, af, m, bf); err != nil {
				b.Fatal(err)
			}
		}
		reportGFLOPS(b, 2*float64(m)*float64(n)*float64(n))
	})
}

func BenchmarkE8_Blendenpik(b *testing.B) {
	m, n := 50000, 100
	rng := rand.New(rand.NewSource(8))
	a := matgen.Dense[float64](rng, m, n)
	rhs := matgen.Dense[float64](rng, m, 1)
	b.Run(fmt.Sprintf("m=%d_n=%d", m, n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := rnd.SolveLS(rng, m, n, a, m, rhs); err != nil {
				b.Fatal(err)
			}
		}
		reportGFLOPS(b, 2*float64(m)*float64(n)*float64(n))
	})
}

// ---- Public API end-to-end ----

func BenchmarkSolveSPD(b *testing.B) {
	ctx := exadla.NewContext(exadla.WithWorkers(4))
	defer ctx.Close()
	rng := rand.New(rand.NewSource(9))
	n := 512
	a := exadla.RandomSPD(rng, n)
	rhs := exadla.RandomGeneral(rng, n, 1)
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ctx.SolveSPD(a, rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E9: three-precision (fp16) refinement ----

func BenchmarkE9_SolveMixedHalf(b *testing.B) {
	n := 256
	rng := rand.New(rand.NewSource(10))
	a := exadla.FromSlice(n, n, matgen.WithCond[float64](rng, n, n, 50))
	rhs := exadla.FromSlice(n, 1, matgen.Dense[float64](rng, n, 1))
	ctx := exadla.NewContext()
	defer ctx.Close()
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ctx.SolveMixedHalf(a, rhs); err != nil {
				b.Fatal(err)
			}
		}
		reportGFLOPS(b, 2*float64(n)*float64(n)*float64(n)/3)
	})
}

// ---- E10: communication counting throughput (analysis cost itself) ----

func BenchmarkE10_CommCount(b *testing.B) {
	n, nb := 512, 64
	rng := rand.New(rand.NewSource(11))
	aD := matgen.DiagDomSPD[float64](rng, n)
	a := tile.FromColMajor(n, n, aD, n, nb)
	rec := sched.NewRecorder()
	if err := core.Cholesky(rec, a); err != nil {
		b.Fatal(err)
	}
	g := rec.Graph()
	place := dist.BlockCyclic(a, 4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.Count(g, 16, place)
	}
}
