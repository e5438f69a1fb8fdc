package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/ft"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

// runE6 reproduces the ABFT experiment on the code the library ships: the
// tile Cholesky under core.Protect's checksum guard (what every entry
// point runs under WithFaultTolerance) against the plain tile Cholesky on
// the same runtime, worker count and tile size — protection overhead, then
// detection/location/correction over seeded soft errors with the solve's
// forward error before and after recovery.
func runE6(quick bool) {
	sizes := pick(quick, []int{256, 512}, []int{256, 512, 1024})
	const nb, trials = 96, 25
	workers := runtime.GOMAXPROCS(0)

	fmt.Printf("— guarded vs plain tile Cholesky (%d workers, nb %d), one soft error per run —\n", workers, nb)
	tbl := newTable("n", "t_plain(s)", "t_abft(s)", "overhead%", "detected", "located", "corrected",
		"fwd_err_clean", "fwd_err_faulty", "fwd_err_recovered")
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		aD := matgen.DiagDomSPD[float64](rng, n)
		tPlain, tABFT, err := timeGuard(aD, n, nb, workers)
		if err != nil {
			fmt.Println(err)
			return
		}
		clean, err := plainFactor(core.OpCholesky, aD, n, nb, workers)
		if err != nil {
			fmt.Println(err)
			return
		}
		xTrue := matgen.Dense[float64](rng, n, 1)
		b := make([]float64, n)
		blas.Symv(blas.Lower, n, 1, aD, n, xTrue, 1, 0, b, 1)
		var norm float64
		for _, v := range aD {
			norm = math.Max(norm, math.Abs(v))
		}
		tol := ft.DetectTol(norm, n)

		nt := (n + nb - 1) / nb
		detected, located, corrected := 0, 0, 0
		var errFaulty, errFixed float64
		for trial := 0; trial < trials; trial++ {
			// A finalized diagonal tile, struck between its potrf and its
			// verification.
			k := rng.Intn(nt)
			ld := min(nb, n-k*nb)
			idx := ft.NewInjector(int64(n*1000 + trial)).RandomLowerIndex(ld)
			e := softError{step: k, i: k, j: k, row: idx % ld, col: idx / ld, delta: 5 + rng.Float64()*20}
			tr := runGuarded(core.OpCholesky, aD, clean, n, nb, workers, e)
			if tr.stats.Detected.Load() > 0 {
				detected++
			}
			if tr.located {
				located++
			}
			if tr.err == nil && tr.diff <= tol {
				corrected++
			}
			l := tr.f.A.ToColMajor()
			errFixed = math.Max(errFixed, cholFwdErr(l, n, b, xTrue))
			// The same corruption left in the factor, as it would be had
			// nothing verified it.
			l[k*nb+e.row+(k*nb+e.col)*n] += e.delta
			errFaulty = math.Max(errFaulty, cholFwdErr(l, n, b, xTrue))
		}
		tbl.add(n, tPlain, tABFT, 100*(tABFT-tPlain)/tPlain,
			fmt.Sprintf("%d/%d", detected, trials),
			fmt.Sprintf("%d/%d", located, trials),
			fmt.Sprintf("%d/%d", corrected, trials),
			cholFwdErr(clean, n, b, xTrue), errFaulty, errFixed)
	}
	tbl.print()

	fmt.Println("\nexpected shape: detection, location and correction 100%; the faulty solve's")
	fmt.Println("forward error is O(1) and the recovered one is back at the fault-free level.")
	fmt.Println("the guard's overhead is its extra work on the same DAG: a checksum pair carried")
	fmt.Println("through every trsm and gemm, and a verification task after every potrf and trsm")
}

// timeGuard returns the best-of-5 seconds of the plain and of the guarded
// tile Cholesky of aD, interleaved on one runtime.
func timeGuard(aD []float64, n, nb, workers int) (tPlain, tABFT float64, err error) {
	r := sched.New(workers, sched.WithRetry(3, 0))
	defer r.Shutdown()
	tPlain, tABFT = math.Inf(1), math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		a := tile.FromColMajor(n, n, aD, n, nb)
		t0 := time.Now()
		if err := core.Cholesky(r, a); err != nil {
			return 0, 0, err
		}
		tPlain = math.Min(tPlain, time.Since(t0).Seconds())
		a = tile.FromColMajor(n, n, aD, n, nb)
		t0 = time.Now()
		if _, err := core.Protect(r, core.OpCholesky, a, nil, &core.FTOptions{}); err != nil {
			return 0, 0, err
		}
		tABFT = math.Min(tABFT, time.Since(t0).Seconds())
	}
	return tPlain, tABFT, nil
}

// plainFactor returns the fault-free column-major factor of aD under op's
// unguarded tile program (OpCholesky or OpLU).
func plainFactor(op string, aD []float64, n, nb, workers int) ([]float64, error) {
	a := tile.FromColMajor(n, n, aD, n, nb)
	r := sched.New(workers)
	defer r.Shutdown()
	var err error
	if op == core.OpCholesky {
		err = core.Cholesky(r, a)
	} else {
		_, err = core.LU(r, a)
	}
	return a.ToColMajor(), err
}

// cholFwdErr solves A·x = b with the column-major Cholesky factor l and
// returns the forward error against xTrue.
func cholFwdErr(l []float64, n int, b, xTrue []float64) float64 {
	x := append([]float64(nil), b...)
	blas.Trsv(blas.Lower, blas.NoTrans, blas.NonUnit, n, l, n, x, 1)
	blas.Trsv(blas.Lower, blas.Trans, blas.NonUnit, n, l, n, x, 1)
	return fwdErr(x, xTrue)
}

// softError is one seeded corruption of a guarded factorization: at panel
// step step the injection hook adds delta to entry (row, col) of tile
// (i, j), which must be one of the tiles FTOptions.InjectHook hands that
// step.
type softError struct {
	step, i, j, row, col int
	delta                float64
}

// abftTrial is the outcome of one guarded factorization under a softError.
type abftTrial struct {
	f       *core.Factors[float64]
	stats   *ft.Stats
	retried int
	// located reports that the guard raised at least one corruption report
	// and that every fault it located lies in the injected tile and row.
	located bool
	// diff is the max-abs difference of the factor from the fault-free one.
	diff float64
	err  error
}

// runGuarded factors aD (n×n, tiles of nb) with op's tile program under
// core.Protect on a fresh workers-wide runtime with retries, injects e
// through the guard's hook, and compares the result with the fault-free
// factor clean. It is the inject/verify/compare loop of E6 and of the
// ABFT act of the faults experiment.
func runGuarded(op string, aD, clean []float64, n, nb, workers int, e softError) abftTrial {
	tr := abftTrial{stats: new(ft.Stats), located: true}
	var mu sync.Mutex
	reports := 0
	r := sched.New(workers, sched.WithRetry(3, 0), sched.WithFailureObserver(func(ev trace.Event, err error) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Outcome != trace.OutcomeFailed {
			tr.retried++
		}
		var ce *ft.CorruptionError
		if !errors.As(err, &ce) {
			return
		}
		reports++
		for _, f := range ce.Faults {
			if ce.TileRow != e.i || ce.TileCol != e.j || f.Row != e.row {
				tr.located = false
			}
		}
	}))
	hook := func(step int, m *tile.Matrix[float64]) {
		if step == e.step {
			m.Tile(e.i, e.j)[e.row+e.col*m.TileRows(e.i)] += e.delta
			tr.stats.Injected.Add(1)
		}
	}
	a := tile.FromColMajor(n, n, aD, n, nb)
	tr.f, tr.err = core.Protect(r, op, a, nil, &core.FTOptions{InjectHook: hook, Stats: tr.stats})
	r.Shutdown()
	tr.located = tr.located && reports > 0
	tr.diff, _ = factorDiff(op, clean, a)
	return tr
}
