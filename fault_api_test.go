package exadla_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"exadla"
)

// spdSystem builds a well-conditioned SPD system with a known solution.
func spdSystem(t *testing.T, rng *rand.Rand, n int) (a, b, x *exadla.Matrix) {
	t.Helper()
	a = exadla.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := rng.Float64() - 0.5
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
		a.Set(j, j, float64(n))
	}
	x = exadla.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64())
	}
	b = exadla.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += a.At(i, j) * x.At(j, 0)
		}
		b.Set(i, 0, s)
	}
	return a, b, x
}

func maxErr(got, want *exadla.Matrix, n int) float64 {
	var d float64
	for i := 0; i < n; i++ {
		if v := math.Abs(got.At(i, 0) - want.At(i, 0)); v > d {
			d = v
		}
	}
	return d
}

func TestFaultToleranceSolveSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n = 160
	a, b, x := spdSystem(t, rng, n)
	ctx := newCtx(t, exadla.WithFaultTolerance(), exadla.WithTileSize(48))
	got, err := ctx.SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxErr(got, x, n); d > 1e-8 {
		t.Errorf("solution error %g", d)
	}
	st := ctx.FaultStats()
	if st.Detected != 0 || st.Failed != 0 {
		t.Errorf("clean fault-tolerant solve reported stats %+v", st)
	}
}

func TestFaultToleranceSolveGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const n = 160
	a, b, x := spdSystem(t, rng, n)
	ctx := newCtx(t, exadla.WithFaultTolerance(), exadla.WithTileSize(48))
	got, err := ctx.Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxErr(got, x, n); d > 1e-8 {
		t.Errorf("solution error %g", d)
	}
}

// TestChaosSolveRecovers: a chaos-armed Context with retries still solves
// correctly and reports the retries it absorbed.
func TestChaosSolveRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const n = 160
	a, b, x := spdSystem(t, rng, n)
	ctx := newCtx(t,
		exadla.WithChaos(2016, 0.05),
		exadla.WithTaskRetry(50, 0),
		exadla.WithTileSize(48),
	)
	got, err := ctx.SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxErr(got, x, n); d > 1e-8 {
		t.Errorf("solution error %g", d)
	}
	if st := ctx.FaultStats(); st.Retried == 0 {
		t.Error("chaos run reported 0 retried tasks")
	}
}

// TestChaosSolveWithoutRetryFails: with retries off, a chaos-killed task
// surfaces from every entry point with an error return as an aggregated
// failure naming the killed kernel, instead of panicking. The rows that
// solve with a stored factor run on one worker and search for a chaos seed
// whose first draws spare the factorization and whose later ones kill a
// task of the solve.
func TestChaosSolveWithoutRetryFails(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const n = 64
	a, b, _ := spdSystem(t, rng, n)
	tall, tb := exadla.RandomGeneral(rng, 2*n, n/2), exadla.RandomGeneral(rng, 2*n, 1)
	for _, c := range []struct {
		name string
		// run reports whether the factorization, if the row has a separate
		// one, succeeded, and the entry point's error.
		run func(ctx *exadla.Context) (factored bool, err error)
	}{
		{"SolveSPD", func(ctx *exadla.Context) (bool, error) { _, err := ctx.SolveSPD(a, b); return true, err }},
		{"Solve", func(ctx *exadla.Context) (bool, error) { _, err := ctx.Solve(a, b); return true, err }},
		{"LeastSquares", func(ctx *exadla.Context) (bool, error) { _, err := ctx.LeastSquares(tall, tb); return true, err }},
		{"TSQRLeastSquares", func(ctx *exadla.Context) (bool, error) {
			_, err := ctx.TSQRLeastSquares(tall, tb, 4)
			return true, err
		}},
		{"CholeskyFactor.Solve", func(ctx *exadla.Context) (bool, error) {
			f, err := ctx.Cholesky(a)
			if err != nil {
				return false, nil
			}
			_, err = f.Solve(b)
			return true, err
		}},
		{"LUFactor.Solve", func(ctx *exadla.Context) (bool, error) {
			f, err := ctx.LU(a)
			if err != nil {
				return false, nil
			}
			_, err = f.Solve(b)
			return true, err
		}},
		{"QRFactor.QTb", func(ctx *exadla.Context) (bool, error) {
			f, err := ctx.QR(tall)
			if err != nil {
				return false, nil
			}
			_, err = f.QTb(tb)
			return true, err
		}},
		{"QR", func(ctx *exadla.Context) (bool, error) { _, err := ctx.QR(tall); return true, err }},
		{"QRTree", func(ctx *exadla.Context) (bool, error) { _, err := ctx.QRTree(tall); return true, err }},
		{"Multiply", func(ctx *exadla.Context) (bool, error) { _, err := ctx.Multiply(a, b); return true, err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5000; seed++ {
				ctx := exadla.NewContext(exadla.WithWorkers(1), exadla.WithChaos(seed, 0.5), exadla.WithTileSize(32))
				var factored bool
				var err error
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("seed %d: panicked: %v", seed, p)
						}
					}()
					factored, err = c.run(ctx)
				}()
				failed := ctx.FaultStats().Failed
				ctx.Close()
				if !factored || failed == 0 {
					continue
				}
				if err == nil {
					t.Fatalf("seed %d: %d killed task(s), nil error", seed, failed)
				}
				if msg := err.Error(); !strings.Contains(msg, "failed") || !strings.Contains(msg, `chaos: killed "`) {
					t.Errorf("error %q does not name the chaos-killed kernel", msg)
				}
				return
			}
			t.Fatal("no chaos seed spared the factorization and killed a task after it")
		})
	}
}
