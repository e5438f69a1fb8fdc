package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"exadla/internal/ckpt"
	"exadla/internal/core"
	"exadla/internal/ft"
	"exadla/internal/matgen"
	"exadla/internal/metrics"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// hardFaultSweep is the E6c experiment: factor under worker-kill chaos with
// a budget of k ∈ {0, 1, 2} kills at seeded points, plus one deliberately
// lost tile rebuilt from row parity. The watchdog reaps each killed
// worker's task at the deadline, a replacement worker re-executes it, and
// the factor must still match the fault-free run bit for bit.
func hardFaultSweep(n, nb, workers int) {
	deadline := 300 * time.Millisecond
	killProb := 0.10
	tb := newTable("op", "n", "kill budget", "workers lost", "timed out", "tiles rebuilt", "max |Δ| vs clean", "status")
	for _, op := range []string{"cholesky", "lu"} {
		rng := rand.New(rand.NewSource(2016))
		aD := matgen.DiagDomSPD[float64](rng, n)

		clean, err := plainFactor(op, aD, n, nb, workers)
		if err != nil {
			tb.add(op, n, "-", 0, 0, 0, "-", "reference failed: "+err.Error())
			continue
		}

		for k := 0; k <= 2; k++ {
			var stats ft.Stats
			a := tile.FromColMajor(n, n, aD, n, nb)
			reg := metrics.New()
			r := sched.New(workers,
				sched.WithMetrics(reg),
				sched.WithRetry(50, 0),
				sched.WithTaskDeadline(deadline),
				sched.WithChaos(sched.Chaos{Seed: 2016 + int64(k), KillWorkerProb: killProb, MaxFaults: k}),
			)
			_, err := core.Protect(r, op, a, nil, &core.FTOptions{
				Stats:     &stats,
				Erasure:   true,
				LoseTiles: []core.TileLoss{{Step: 1, I: 2, J: 0}},
			})
			r.Shutdown()
			status := "bitwise"
			diff, same := factorDiff(op, clean, a)
			if err != nil {
				status = "FAILED: " + err.Error()
			} else if !same {
				status = "DIVERGED"
			}
			snap := reg.Snapshot()
			tb.add(op, n, k,
				snap.Counters["sched.workers_lost"],
				snap.Counters["sched.tasks_timed_out"],
				stats.TilesReconstructed.Load(), diff, status)
		}
	}
	tb.print()
}

// factorDiff compares got with the column-major fault-free factor cd over
// the factor's meaningful part — the lower triangle for Cholesky (entries
// above the diagonal are dead storage), the whole array for LU — returning
// the max-abs difference and whether every entry matches bit for bit.
func factorDiff(op string, cd []float64, got *tile.Matrix[float64]) (diff float64, same bool) {
	gd := got.ToColMajor()
	n := got.M
	same = true
	for j := 0; j < n; j++ {
		lo := 0
		if op == "cholesky" {
			lo = j
		}
		want, have := cd[lo+j*n:(j+1)*n], gd[lo+j*n:(j+1)*n]
		same = same && firstBitDiff(have, want) < 0
		for i := range want {
			if d := math.Abs(want[i] - have[i]); d > diff {
				diff = d
			}
		}
	}
	return diff, same
}

// firstBitDiff returns the index of the first element where got and want
// differ in their bits (math.Float64bits, so −0 never passes for +0), the
// shorter length if one is a prefix of the other, or -1 when they are
// bitwise identical. Every "bitwise" verdict the fault tables print comes
// from it.
func firstBitDiff(got, want []float64) int {
	n := min(len(got), len(want))
	for i := range n {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	if len(got) != len(want) {
		return n
	}
	return -1
}

// checkpointDemo aborts a checkpointed factorization mid-flight, resumes it
// from the newest snapshot on disk, and checks the resumed factor is
// bitwise identical to an uninterrupted run.
func checkpointDemo(n, nb, workers int) {
	tb := newTable("op", "n", "abort after step", "resumed from", "max |Δ| vs clean", "status")
	for _, op := range []string{"cholesky", "lu"} {
		rng := rand.New(rand.NewSource(2016))
		aD := matgen.DiagDomSPD[float64](rng, n)

		clean, err := plainFactor(op, aD, n, nb, workers)
		if err != nil {
			tb.add(op, n, "-", "-", "-", "reference failed: "+err.Error())
			continue
		}

		dir, err := os.MkdirTemp("", "exabench-ckpt-*")
		if err != nil {
			tb.add(op, n, "-", "-", "-", "tempdir: "+err.Error())
			continue
		}
		defer os.RemoveAll(dir)

		abortAt := (n + nb - 1) / nb / 2
		opt := core.CkptOptions{Dir: dir, Every: 1, AbortAtStep: abortAt}
		a := tile.FromColMajor(n, n, aD, n, nb)
		r := sched.New(workers)
		_, err = core.Protect(r, op, a, &opt, nil)
		r.Shutdown()
		if !errors.Is(err, core.ErrAborted) {
			tb.add(op, n, abortAt, "-", "-", fmt.Sprintf("expected abort, got %v", err))
			continue
		}

		ck, _, err := ckpt.Latest(dir)
		if err != nil {
			tb.add(op, n, abortAt, "-", "-", "no checkpoint: "+err.Error())
			continue
		}
		r2 := sched.New(workers)
		resumed, _, err := core.Resume(r2, ck, &core.CkptOptions{Dir: dir, Every: 1}, nil)
		r2.Shutdown()
		if err != nil {
			tb.add(op, n, abortAt, ck.Step, "-", "resume failed: "+err.Error())
			continue
		}
		diff, same := factorDiff(op, clean, resumed)
		status := "bitwise"
		if !same {
			status = "DIVERGED"
		}
		tb.add(op, n, abortAt, fmt.Sprintf("step %d", ck.Step), diff, status)
	}
	tb.print()
}
