package main

import (
	"fmt"
	"math"
	"math/rand"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/matgen"
	"exadla/internal/metrics"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// runFaults is the faults experiment: a fault-injection demonstration of
// the resilient in-process runtime, in five acts. A seeded chaos sweep
// (task kills at increasing probability, absorbed by retries) over the tile
// Cholesky and LU factorizations, the failure report with retries
// disabled, ABFT-driven recovery from mid-factorization data corruption
// with the injected/detected/corrected/retried accounting, worker kills
// with a lost tile rebuilt from parity, and checkpoint/restart. The
// distributed act is E11.
func runFaults(quick bool) {
	n := pick(quick, 256, 512)
	nb := 64
	workers := 4

	fmt.Println("--- chaos sweep: seeded task kills absorbed by retries ---")
	fmt.Println()
	tb := newTable("op", "n", "fail prob", "tasks", "retried", "failed", "residual", "status")
	for _, op := range []string{"cholesky", "lu"} {
		for _, prob := range []float64{0.01, 0.05, 0.10} {
			tasks, retried, failed, resid, err := chaosRun(op, n, nb, workers, prob)
			status := "ok"
			if err != nil {
				status = "FAILED"
			}
			tb.add(op, n, prob, tasks, retried, failed, resid, status)
		}
	}
	tb.print()

	fmt.Println()
	fmt.Println("--- same seed, retries disabled: aggregated failure report ---")
	fmt.Println()
	noRetryDemo(n, nb, workers)

	fmt.Println()
	fmt.Println("--- ABFT recovery: checksum-detected corruption, corrected in place ---")
	fmt.Println()
	abftDemo(n, nb, workers)

	fmt.Println()
	fmt.Println("--- hard faults (E6c): worker kills reaped by the watchdog, lost tiles rebuilt from parity ---")
	fmt.Println()
	hardFaultSweep(n, nb, workers)

	fmt.Println()
	fmt.Println("--- checkpoint/restart: abort mid-factorization, resume to a bitwise-identical factor ---")
	fmt.Println()
	checkpointDemo(n, nb, workers)
}

// chaosRun factors one matrix under a seeded chaos layer with generous
// retries, returning the task accounting and the factorization residual.
func chaosRun(op string, n, nb, workers int, prob float64) (tasks, retried, failed int64, resid float64, err error) {
	rng := rand.New(rand.NewSource(2016))
	aD := matgen.DiagDomSPD[float64](rng, n)
	a := tile.FromColMajor(n, n, aD, n, nb)
	reg := metrics.New()
	r := sched.New(workers,
		sched.WithMetrics(reg),
		sched.WithRetry(50, 0),
		sched.WithChaos(sched.Chaos{Seed: 2016, FailProb: prob}),
	)
	defer r.Shutdown()
	switch op {
	case "cholesky":
		err = core.Cholesky(r, a)
		if err == nil {
			resid = choleskyResidual(n, aD, a)
		}
	case "lu":
		var f *core.Factors[float64]
		f, err = core.LU(r, a)
		if err == nil {
			resid, err = luResidual(n, nb, aD, f, r)
		}
	}
	snap := reg.Snapshot()
	tasks = snap.Counters["sched.tasks_submitted"]
	retried = snap.Counters["sched.tasks_retried"]
	failed = snap.Counters["sched.tasks_failed"]
	return tasks, retried, failed, resid, err
}

// noRetryDemo runs the chaos seed without a retry policy and prints the
// aggregated failure the solver surfaces instead of panicking.
func noRetryDemo(n, nb, workers int) {
	rng := rand.New(rand.NewSource(2016))
	aD := matgen.DiagDomSPD[float64](rng, n)
	a := tile.FromColMajor(n, n, aD, n, nb)
	r := sched.New(workers, sched.WithChaos(sched.Chaos{Seed: 2016, FailProb: 0.05}))
	defer r.Shutdown()
	if err := core.Cholesky(r, a); err != nil {
		fmt.Printf("cholesky: %v\n", err)
	} else {
		fmt.Println("cholesky: unexpectedly succeeded")
	}
}

// abftDemo corrupts each guarded factorization mid-flight through the
// guard's injection hook and reports the recovery accounting.
func abftDemo(n, nb, workers int) {
	tb := newTable("op", "n", "injected", "detected", "corrected", "unlocated", "retried", "max diff vs clean", "status")
	rng := rand.New(rand.NewSource(7))
	aD := matgen.DiagDomSPD[float64](rng, n)
	for _, op := range []string{core.OpCholesky, core.OpLU} {
		clean, err := plainFactor(op, aD, n, nb, workers)
		if err != nil {
			tb.add(op, n, 0, 0, 0, 0, 0, "-", "reference failed: "+err.Error())
			continue
		}
		// One corruption dropped into the middle of the factorization: the
		// panel tile below the diagonal right after the step's checksum
		// snapshot (for Cholesky, before its trsm).
		k := (n + nb - 1) / nb / 2
		tr := runGuarded(op, aD, clean, n, nb, workers, softError{step: k, i: k + 1, j: k, row: 3, col: 2, delta: 1e-2})
		status := "recovered"
		if tr.err != nil {
			status = "FAILED: " + tr.err.Error()
		}
		tb.add(op, n,
			tr.stats.Injected.Load(), tr.stats.Detected.Load(),
			tr.stats.Corrected.Load(), tr.stats.Unlocated.Load(),
			tr.retried, tr.diff, status)
	}
	tb.print()
}

// choleskyResidual reconstructs L·Lᵀ and reports the scaled max error over
// the lower triangle.
func choleskyResidual(n int, aD []float64, a *tile.Matrix[float64]) float64 {
	f := a.ToColMajor()
	var diff, norm float64
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			var v float64
			for k := 0; k <= j; k++ {
				v += f[i+k*n] * f[j+k*n]
			}
			if d := math.Abs(v - aD[i+j*n]); d > diff {
				diff = d
			}
			if av := math.Abs(aD[i+j*n]); av > norm {
				norm = av
			}
		}
	}
	return diff / (norm * float64(n) * 0x1p-52)
}

// luResidual solves A·x = b with the factors against a random known
// solution and reports the max error.
func luResidual(n, nb int, aD []float64, f *core.Factors[float64], s sched.Scheduler) (float64, error) {
	rng := rand.New(rand.NewSource(123))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	b := make([]float64, n)
	blas.Gemv(blas.NoTrans, n, n, 1, aD, n, x, 1, 0, b, 1)
	tb := tile.FromColMajor(n, 1, b, n, nb)
	if err := core.Solve(s, f, tb); err != nil {
		return 0, err
	}
	got := tb.ToColMajor()
	var diff float64
	for i := range x {
		if d := math.Abs(got[i] - x[i]); d > diff {
			diff = d
		}
	}
	return diff, nil
}
