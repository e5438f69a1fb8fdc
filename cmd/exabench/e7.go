package main

import (
	"fmt"
	"math/rand"
	"time"

	"exadla/internal/batch"
	"exadla/internal/matgen"
	"exadla/internal/sched"
)

// runE7 reproduces the batched-BLAS argument: thousands of tiny Cholesky
// factorizations submitted one task per problem versus chunked batches,
// plus the simulated multi-worker scaling of the batched DAG.
func runE7(quick bool) {
	count := pick(quick, 500, 2000)
	sizes := []int{4, 8, 16, 32, 64}

	tbl := newTable("n", "count", "t_loop(s)", "t_chunk1(s)", "t_batched(s)",
		"loop/batched", "chunk1/batched", "sim_speedup@16")
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		mats := make([][]float64, count)
		for i := range mats {
			mats[i] = matgen.DiagDomSPD[float64](rng, n)
		}
		clone := func() [][]float64 {
			out := make([][]float64, len(mats))
			for i, m := range mats {
				out[i] = append([]float64(nil), m...)
			}
			return out
		}

		// Plain loop.
		ms := clone()
		t0 := time.Now()
		batch.PotrfSeq(n, ms)
		tLoop := time.Since(t0).Seconds()

		// One task per problem (the anti-pattern: task overhead per tiny
		// problem).
		rt := sched.New(1)
		ms = clone()
		t0 = time.Now()
		batch.Potrf(rt, n, ms, batch.Options{ChunkSize: 1})
		tChunk1 := time.Since(t0).Seconds()
		rt.Shutdown()

		// Batched with default chunking.
		rt = sched.New(1)
		ms = clone()
		t0 = time.Now()
		batch.Potrf(rt, n, ms, batch.Options{})
		tBatched := time.Since(t0).Seconds()
		rt.Shutdown()

		// Simulated scaling of the batched DAG.
		rec := sched.NewRecorder()
		batch.Potrf(rec, n, clone(), batch.Options{})
		speedup := simulate(rec.Graph(), 16).Speedup()

		tbl.add(n, count, tLoop, tChunk1, tBatched,
			tLoop/tBatched, tChunk1/tBatched, speedup)
	}
	tbl.print()
	fmt.Println("\nexpected shape: per-task dispatch dominates at tiny n (chunk1/batched ≫ 1,")
	fmt.Println("shrinking as n grows); batched ≈ loop on one worker but its DAG scales to P")
	fmt.Println("workers (sim_speedup → min(16, chunks)) where the loop cannot")
}
