package mixed

import (
	"math"
	"testing"

	"exadla/internal/sched"
)

// TestRefineNonFiniteFallsBack drives the refinement loop with a
// low-precision solve that overflows or returns NaN. A diverged iterate
// must never be reported as converged: NaN and ±Inf slip through the
// ‖r‖ ≤ ‖x‖·‖A‖·ε·√n comparison, so the loop has to hand over to the
// float64 fallback.
func TestRefineNonFiniteFallsBack(t *testing.T) {
	const n = 4
	a := make([]float64, n*n)
	b := make([]float64, n)
	for i := range a {
		a[i] = 1
	}
	for i := 0; i < n; i++ {
		a[i+i*n] = n + 1
		b[i] = 1
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := make([]float64, n)
		solve32 := func(r, d []float64) {
			for i := range d {
				d[i] = bad
			}
		}
		fellBack := false
		fallback := func() (Result, error) {
			fellBack = true
			for i := range x {
				x[i] = 1.0 / (2*n - 1) // the exact solution
			}
			return Result{FellBack: true}, nil
		}
		res, err := refine(n, b, x, 2*n, blockResidual(sched.NewRecorder(), 2, false, n, a, n, b), solve32, fallback)
		if err != nil {
			t.Fatalf("solve32 → %v: %v", bad, err)
		}
		if res.Converged || !res.FellBack || !fellBack {
			t.Errorf("solve32 → %v: converged=%v fellBack=%v (fallback ran: %v), want the float64 fallback",
				bad, res.Converged, res.FellBack, fellBack)
		}
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("solve32 → %v: x[%d] = %v returned", bad, i, v)
			}
		}
	}
	if m := infNorm([]float64{1, math.NaN(), -3}); !math.IsNaN(m) {
		t.Errorf("infNorm skipped a NaN entry: got %v", m)
	}
}
