package exadla_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"exadla"
	"exadla/internal/matgen"
	"exadla/internal/serve"
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

// The public shed error is serve's own type, and SolveServer is serve's
// Server, so what Submit returns on overload is what errors.As finds
// through the public name. internal/serve's
// TestShedUnderOverloadAndAdmitAfterDrain holds its first job in flight, so
// it checks the shed itself, its type and the configured RetryAfter
// without racing the job's completion.
var _ *serve.ShedError = (*exadla.ServeShedError)(nil)

func TestServeAPIShedType(t *testing.T) {
	err := fmt.Errorf("submit: %w", &serve.ShedError{RetryAfter: 3 * time.Second})
	var shed *exadla.ServeShedError
	if !errors.As(err, &shed) {
		t.Fatalf("errors.As(%v) found no *exadla.ServeShedError", err)
	}
	if shed.RetryAfter != 3*time.Second {
		t.Errorf("RetryAfter=%v", shed.RetryAfter)
	}
}
