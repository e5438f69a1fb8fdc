package core

import (
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/matgen"
	"exadla/internal/metrics"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// packedBytes is the number of bytes packA and packB write while fn runs.
func packedBytes(fn func()) int64 {
	c := metrics.Default().Counter("blas.pack.bytes")
	before := c.Load()
	fn()
	return c.Load() - before
}

// panelPackBytes is what the steps of op's program other than the trailing
// updates pack on a — the recursive lapack.Getrf of LU's panel, say —
// measured by running the program in order on a copy without a pack table.
func panelPackBytes(t *testing.T, op string, a *tile.Matrix[float64]) int64 {
	t.Helper()
	c := tile.FromColMajor(a.M, a.N, a.ToColMajor(), a.M, a.NB)
	f := newFactors(op, c)
	var n int64
	for _, st := range Program(op, c.MT, c.NT, 0) {
		b := packedBytes(func() { _ = Apply(st, c, f) })
		if st.band() != bandUpdate {
			n += b
		}
	}
	return n
}

// tablePackBytes is the bytes of every panel tile form the trailing
// updates of op's program over a read and some reader packs: a product
// narrower than the register tile (n < NR) runs on the axpy kernels and
// packs nothing, and at nb = 32 every other update product is above the
// volume cutover. Cholesky packs both forms of every tile below the
// diagonal (its syrk always packs); LU an A form per L tile and a B form
// per U tile.
func tablePackBytes(op string, a *tile.Matrix[float64], mr, nr int) int64 {
	round := func(v, unit int) int { return (v + unit - 1) / unit * unit }
	formA := func(i, k int) int { return round(a.TileRows(i), mr) * a.TileCols(k) }
	formB := func(k, j int) int { return a.TileCols(k) * round(a.TileCols(j), nr) }
	var n int
	for k := 0; k < a.NT; k++ {
		for i := k + 1; i < a.MT; i++ {
			if op == OpCholesky {
				n += formA(i, k) + formB(k, i)
				continue
			}
			// L(i, k) is read with every U(k, j), j > k; U(k, i) by every
			// L(i', k), i' > k.
			if a.TileCols(a.NT-1) >= nr || a.NT-k > 2 {
				n += formA(i, k)
			}
			if a.TileCols(i) >= nr {
				n += formB(k, i)
			}
		}
	}
	return int64(8 * n)
}

// TestPanelsPackedOnce: a factorization packs each form of each panel tile
// its trailing updates read exactly once, on any executor, and every pack
// is back in the pool when the driver returns — after success, after a
// singular LU (which runs to completion), a not positive definite
// Cholesky (whose poisoned updates never retire their packs) and a chaos
// run whose killed tasks are retried.
func TestPanelsPackedOnce(t *testing.T) {
	metrics.Enable()
	t.Cleanup(func() {
		metrics.Disable()
		metrics.Reset()
	})
	executors := map[string]func() (sched.Scheduler, func()){
		"recorder": func() (sched.Scheduler, func()) { return sched.NewRecorder(), func() {} },
		"runtime1": func() (sched.Scheduler, func()) { r := sched.New(1); return r, r.Shutdown },
		"runtime4": func() (sched.Scheduler, func()) { r := sched.New(4); return r, r.Shutdown },
		"chaos4": func() (sched.Scheduler, func()) {
			r := sched.New(4, sched.WithRetry(50, 0), sched.WithChaos(sched.Chaos{Seed: 2016, FailProb: 0.1}))
			return r, r.Shutdown
		},
	}
	const nb = 32
	rng := rand.New(rand.NewSource(61))
	// MR = 4 keeps the A form's row padding independent of the machine's
	// microkernel; n = 130 leaves a 2-wide last tile, whose products with
	// U tiles of that column run on the axpy kernels.
	for _, cfg := range []struct {
		blk blas.Blocking
		n   int
	}{{blas.DefaultBlocking(), 128}, {blas.Blocking{MR: 4}, 130}} {
		old := blas.GemmBlocking()
		blk := blas.SetGemmBlocking(cfg.blk)
		n := cfg.n
		spd := matgen.DiagDomSPD[float64](rng, n)
		general := matgen.Dense[float64](rng, n, n)
		notPD := append([]float64(nil), spd...)
		notPD[(n/2)*(n+1)] = -1
		singular := append([]float64(nil), general...)
		clear(singular[nb*n : (nb+1)*n])
		for _, c := range []struct {
			name string
			op   string
			data []float64
			fail bool
		}{
			{"cholesky", OpCholesky, spd, false},
			{"lu", OpLU, general, false},
			{"lunp", OpLUNoPiv, spd, false},
			{"cholesky-notpd", OpCholesky, notPD, true},
			{"lu-singular", OpLU, singular, true},
		} {
			for name, mk := range executors {
				a := tile.FromColMajor(n, n, c.data, n, nb)
				want := panelPackBytes(t, c.op, a) + tablePackBytes(c.op, a, blk.MR, blk.NR)
				s, done := mk()
				var err error
				got := packedBytes(func() { _, err = Factor(s, c.op, a, nil, false) })
				done()
				if (err != nil) != c.fail {
					t.Fatalf("n=%d %s on %s: error %v", n, c.name, name, err)
				}
				// A poisoned Cholesky skips updates; a singular LU does not.
				if (!c.fail || c.op == OpLU) && got != want {
					t.Errorf("n=%d %s on %s: packed %d bytes, want %d", n, c.name, name, got, want)
				}
				if open := packsOpen.Load(); open != 0 {
					t.Errorf("n=%d %s on %s: %d packs not released", n, c.name, name, open)
				}
			}
		}
		blas.SetGemmBlocking(old)
	}
}
