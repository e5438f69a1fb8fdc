package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"exadla"
	"exadla/internal/batch"
	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// The probes measure what the machine and the kernels can do, at the sizes
// the workloads use, by timing calls into exported functions of blas,
// lapack, tile, sched, batch and core. They do not depend on the workload:
// every traced run takes them, as the context for that run's ratios.

const (
	probeNB = exadla.DefaultTileSize
	// copyBytes is the size of each array of the copy-bandwidth probe. The
	// host reports a 260 MiB L3 shared by the whole physical machine and
	// 4 MiB of L2 per core; 128 MiB is 16× this VM's two L2s but below the
	// L3, so the figure is a cache-assisted bandwidth, not a DRAM one.
	copyBytes = 128 << 20
)

// bestOf times f reps times and returns the shortest, in seconds: a probe
// asks what the hardware can do, and every disturbance only adds time.
func bestOf(reps int, f func()) float64 {
	best := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		t := time.Now()
		f()
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return best.Seconds()
}

func runProbes(seed int64) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	out := map[string]float64{
		"host.cpus":       float64(runtime.NumCPU()),
		"host.gomaxprocs": float64(nproc()),
	}

	src := make([]float64, copyBytes/8)
	dst := make([]float64, copyBytes/8)
	for i := range src {
		src[i] = float64(i)
	}
	copy(dst, src) // first touch of dst
	out["host.copy_gbs"] = 2 * copyBytes / 1e9 / bestOf(3, func() { copy(dst, src) })
	src, dst = nil, nil

	// blas: one thread, tile-sized and large.
	gemm := func(n int) float64 {
		a, b, c := matgen.Dense[float64](rng, n, n), matgen.Dense[float64](rng, n, n), make([]float64, n*n)
		reps := max(2, 40_000_000/(n*n*n))
		s := bestOf(3, func() {
			for r := 0; r < reps; r++ {
				blas.Gemm(blas.NoTrans, blas.Trans, n, n, n, -1, a, n, b, n, 1, c, n)
			}
		})
		return 2 * float64(n) * float64(n) * float64(n) * float64(reps) / 1e9 / s
	}
	out["blas.gemm.gflops_nb"] = gemm(probeNB)
	out["blas.gemm.gflops_1024"] = gemm(1024)
	out["blas.gemm.nb_over_1024"] = out["blas.gemm.gflops_nb"] / out["blas.gemm.gflops_1024"]
	{
		n := probeNB
		a, c := matgen.Dense[float64](rng, n, n), make([]float64, n*n)
		l := matgen.DiagDomSPD[float64](rng, n)
		const reps = 40
		s := bestOf(3, func() {
			for r := 0; r < reps; r++ {
				blas.Syrk(blas.Lower, blas.NoTrans, n, n, -1, a, n, 1, c, n)
			}
		})
		out["blas.syrk.gflops_nb"] = float64(n) * float64(n+1) * float64(n) * reps / 1e9 / s
		x := make([]float64, n*n)
		s = bestOf(3, func() {
			for r := 0; r < reps; r++ {
				copy(x, a) // a fresh right-hand side: repeated solves in place would drift to denormals
				blas.Trsm(blas.Right, blas.Lower, blas.Trans, blas.NonUnit, n, n, 1, l, n, x, n)
			}
		})
		out["blas.trsm.gflops_nb"] = float64(n) * float64(n) * float64(n) * reps / 1e9 / s
	}
	{
		const n = 512
		a, b, c := matgen.Dense[float32](rng, n, n), matgen.Dense[float32](rng, n, n), make([]float32, n*n)
		s := bestOf(2, func() { blas.Gemm(blas.NoTrans, blas.Trans, n, n, n, -1, a, n, b, n, 1, c, n) })
		out["blas.gemm32.gflops_512"] = 2 * n * n * n / 1e9 / s
	}

	// lapack: the serial column-major baselines of the library workloads.
	{
		a := matgen.DiagDomSPD[float64](rng, cholN)
		w := make([]float64, len(a))
		var err error
		s := bestOf(2, func() { copy(w, a); err = lapack.Potrf(blas.Lower, cholN, w, cholN) })
		if err != nil {
			return nil, fmt.Errorf("probe potrf: %w", err)
		}
		out["lapack.potrf.gflops"] = libKinds["chol_large"].flops / 1e9 / s

		g := matgen.Dense[float64](rng, luN, luN)
		w = w[:luN*luN]
		ipiv := make([]int, luN)
		s = bestOf(2, func() { copy(w, g); err = lapack.Getrf(luN, luN, w, luN, ipiv) })
		if err != nil {
			return nil, fmt.Errorf("probe getrf: %w", err)
		}
		out["lapack.getrf.gflops"] = libKinds["lu_large"].flops / 1e9 / s

		q := matgen.Dense[float64](rng, lsM, lsN)
		w = make([]float64, len(q))
		tau := make([]float64, lsN)
		s = bestOf(2, func() { copy(w, q); lapack.Geqrf(lsM, lsN, w, lsM, tau) })
		out["lapack.geqrf.gflops"] = libKinds["ls_tall"].flops / 1e9 / s

		a32 := matgen.DiagDomSPD[float32](rng, mixedN)
		w32 := make([]float32, len(a32))
		s = bestOf(2, func() { copy(w32, a32); err = lapack.Potrf(blas.Lower, mixedN, w32, mixedN) })
		if err != nil {
			return nil, fmt.Errorf("probe potrf32: %w", err)
		}
		out["lapack.potrf32.gflops"] = libKinds["mixed_spd"].flops / 1e9 / s
	}

	// tile: layout conversion at the chol_large size.
	{
		a := matgen.Dense[float64](rng, cholN, cholN)
		var t *tile.Matrix[float64]
		bytes := 2 * 8 * float64(cholN) * cholN // read + write
		out["tile.from_colmajor.gbs"] = bytes / 1e9 / bestOf(3, func() { t = tile.FromColMajor(cholN, cholN, a, cholN, probeNB) })
		out["tile.to_colmajor.gbs"] = bytes / 1e9 / bestOf(3, func() { _ = t.ToColMajor() })
	}

	// sched: 100k empty tasks with the dependence shape of a tile Cholesky.
	{
		s := sched.New(nproc())
		const nt = 84 // nt(nt+1)(nt+2)/6 ≈ 100k tasks
		h := func(i, j int) sched.Handle { return [2]int{i, j} }
		nop := func() {}
		tasks := 0
		sec := bestOf(1, func() {
			for k := 0; k < nt; k++ {
				s.Submit(sched.Task{Name: "potrf", Writes: []sched.Handle{h(k, k)}, Fn: nop})
				tasks++
				for i := k + 1; i < nt; i++ {
					s.Submit(sched.Task{Name: "trsm", Reads: []sched.Handle{h(k, k)}, Writes: []sched.Handle{h(i, k)}, Fn: nop})
					tasks++
				}
				for i := k + 1; i < nt; i++ {
					for j := k + 1; j <= i; j++ {
						s.Submit(sched.Task{Name: "gemm", Reads: []sched.Handle{h(i, k), h(j, k)}, Writes: []sched.Handle{h(i, j)}, Fn: nop})
						tasks++
					}
				}
			}
			s.Wait()
		})
		s.Shutdown()
		out["sched.task_overhead_us"] = sec * 1e6 / float64(tasks)
	}

	// batch: 10k Cholesky factorizations of order 16, fused against a loop.
	{
		const count, n = 10_000, 16
		base := matgen.DiagDomSPD[float64](rng, n)
		mats := make([][]float64, count)
		fill := func() {
			for i := range mats {
				mats[i] = append(mats[i][:0], base...)
			}
		}
		s := sched.New(nproc())
		var failed error
		check := func(errs []error) {
			for _, err := range errs {
				if err != nil {
					failed = err
				}
			}
		}
		fill()
		fused := bestOf(1, func() { check(batch.Potrf(s, n, mats, batch.Options{})) })
		fill()
		seq := bestOf(1, func() { check(batch.PotrfSeq(n, mats)) })
		s.Shutdown()
		if failed != nil {
			return nil, fmt.Errorf("probe batch potrf: %w", failed)
		}
		out["batch.potrf.problems_per_s"] = count / fused
		out["batch.potrf.over_seq"] = seq / fused
	}

	// core: the warm path of the solve service — two triangular sweeps
	// against a resident order-512 factor, on one worker as a lane runs it.
	{
		const n, nb = 512, 64
		l := tile.FromColMajor(n, n, matgen.DiagDomSPD[float64](rng, n), n, nb)
		s := sched.New(1)
		if err := core.Cholesky(s, l); err != nil {
			s.Shutdown()
			return nil, fmt.Errorf("probe trsm: %w", err)
		}
		rhs := matgen.Dense[float64](rng, n, 1)
		sec := bestOf(20, func() {
			b := tile.FromColMajor(n, 1, rhs, n, nb)
			core.TrsmLower(s, blas.NoTrans, l, b)
			core.TrsmLower(s, blas.Trans, l, b)
			s.Wait()
		})
		s.Shutdown()
		out["core.trsm.ms_n512"] = sec * 1e3
	}
	return out, nil
}
