package exadla_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"exadla"
	"exadla/internal/matgen"
)

func TestServeAPISolveAndCache(t *testing.T) {
	s, err := exadla.Serve(exadla.ServeConfig{Lanes: 1, Workers: 2, TileSize: 16, SmallCutoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(1))
	n := 32
	a := matgen.DiagDomSPD[float64](rng, n)
	b := matgen.Dense[float64](rng, n, 1)
	submit := func() exadla.ServeStatus {
		id, err := s.Submit("api-test", exadla.ServeJob{
			Op: exadla.ServeSolveSPD, N: n, NRHS: 1,
			A: append([]float64(nil), a...), B: append([]float64(nil), b...),
		})
		if err != nil {
			t.Fatal(err)
		}
		st, _ := s.WaitJob(id)
		if st.State != "done" {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
		return st
	}

	cold := submit()
	warm := submit()
	if cold.Cache != "miss" || warm.Cache != "hit" {
		t.Errorf("cache: cold=%q warm=%q", cold.Cache, warm.Cache)
	}
	x, err := s.Result(warm.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		sum := 0.0
		for k := 0; k < n; k++ {
			sum += a[i+k*n] * x[k]
		}
		if math.Abs(sum-b[i]) > 1e-8 {
			t.Fatalf("residual at row %d: %g", i, math.Abs(sum-b[i]))
		}
	}
}

func TestServeAPIShedType(t *testing.T) {
	s, err := exadla.Serve(exadla.ServeConfig{Lanes: 1, Workers: 1, TileSize: 16,
		SmallCutoff: -1, MaxQueue: 1, RetryAfter: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(2))
	n := 256 // big enough to still be in flight when the second submit lands
	job := func() exadla.ServeJob {
		return exadla.ServeJob{Op: exadla.ServeSolveSPD, N: n, NRHS: 1,
			A: matgen.DiagDomSPD[float64](rng, n), B: matgen.Dense[float64](rng, n, 1)}
	}
	// Both operands are drawn before the first Submit, so nothing but the
	// second Submit runs while the first job must still be pending.
	j1, j2 := job(), job()
	first, err := s.Submit("t", j1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit("t", j2)
	var shed *exadla.ServeShedError
	if !errors.As(err, &shed) {
		t.Fatalf("overload returned %T (%v), want *exadla.ServeShedError", err, err)
	}
	if shed.RetryAfter != 3*time.Second {
		t.Errorf("RetryAfter=%v", shed.RetryAfter)
	}
	if st, _ := s.WaitJob(first); st.State != "done" {
		t.Errorf("first job: %s", st.State)
	}
}
