package exadla_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"exadla"
	"exadla/internal/lapack"
)

// copyDir copies the files of src into a fresh temporary directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// pivotIndex is the global index a factorization error reports, or -1.
func pivotIndex(err error) int {
	var npd *lapack.NotPositiveDefiniteError
	var sing *lapack.SingularError
	switch {
	case errors.As(err, &npd):
		return npd.Index
	case errors.As(err, &sing):
		return sing.Index
	}
	return -1
}

// TestEveryOptionOnEveryEntryPoint runs every factorizing entry point —
// Cholesky, SolveSPD, InvertSPD, LU, Solve, and Resume of a checkpointed
// Cholesky and LU — under every protection set, and demands from each the unprotected
// result bit for bit, verify tasks exactly when ABFT is armed, and
// checkpoint files exactly when checkpointing is armed (Resume always
// keeps checkpointing into the directory it resumes from). On a non-SPD or
// singular input every protection set must fail like the unprotected run:
// same error type, same global index.
func TestEveryOptionOnEveryEntryPoint(t *testing.T) {
	const n, nb = 192, 48
	a, b, _ := spdSystem(t, rand.New(rand.NewSource(95)), n)
	notSPD := a.Clone()
	notSPD.Set(n-1, n-1, -1)
	singular := a.Clone()
	for i := 0; i < n; i++ {
		singular.Set(i, n-1, 0)
	}

	// checkpointed leaves the directory a checkpointed run of factor on m
	// wrote, rewound to its first snapshot.
	checkpointed := func(factor func(*exadla.Context, *exadla.Matrix) error, m *exadla.Matrix) string {
		dir := t.TempDir()
		ctx := newCtx(t, exadla.WithTileSize(nb), exadla.WithCheckpoint(dir, 1))
		_ = factor(ctx, m)
		rewindCheckpoints(t, dir, 1)
		return dir
	}
	cholesky := func(ctx *exadla.Context, m *exadla.Matrix) error { _, err := ctx.Cholesky(m); return err }
	lu := func(ctx *exadla.Context, m *exadla.Matrix) error { _, err := ctx.LU(m); return err }
	resumeDirs := map[*exadla.Matrix]string{}
	for _, m := range []*exadla.Matrix{a, notSPD} {
		resumeDirs[m] = checkpointed(cholesky, m)
	}
	luDirs := map[*exadla.Matrix]string{}
	for _, m := range []*exadla.Matrix{a, singular} {
		luDirs[m] = checkpointed(lu, m)
	}

	type entry struct {
		name string
		bad  *exadla.Matrix
		// run returns the entry point's result and, for Resume, the
		// directory it resumed from.
		run func(ctx *exadla.Context, m *exadla.Matrix) (*exadla.Matrix, string, error)
	}
	entries := []entry{
		{"Cholesky", notSPD, func(ctx *exadla.Context, m *exadla.Matrix) (*exadla.Matrix, string, error) {
			f, err := ctx.Cholesky(m)
			if err != nil {
				return nil, "", err
			}
			return f.L(), "", nil
		}},
		{"SolveSPD", notSPD, func(ctx *exadla.Context, m *exadla.Matrix) (*exadla.Matrix, string, error) {
			x, err := ctx.SolveSPD(m, b)
			return x, "", err
		}},
		{"InvertSPD", notSPD, func(ctx *exadla.Context, m *exadla.Matrix) (*exadla.Matrix, string, error) {
			inv, err := ctx.InvertSPD(m)
			return inv, "", err
		}},
		{"LU", singular, func(ctx *exadla.Context, m *exadla.Matrix) (*exadla.Matrix, string, error) {
			f, err := ctx.LU(m)
			if err != nil {
				return nil, "", err
			}
			x, err := f.Solve(b)
			return x, "", err
		}},
		{"Solve", singular, func(ctx *exadla.Context, m *exadla.Matrix) (*exadla.Matrix, string, error) {
			x, err := ctx.Solve(m, b)
			return x, "", err
		}},
		{"Resume/cholesky", notSPD, func(ctx *exadla.Context, m *exadla.Matrix) (*exadla.Matrix, string, error) {
			dir := copyDir(t, resumeDirs[m])
			res, err := ctx.Resume(dir)
			if err != nil {
				return nil, dir, err
			}
			return res.Cholesky.L(), dir, nil
		}},
		{"Resume/lu", singular, func(ctx *exadla.Context, m *exadla.Matrix) (*exadla.Matrix, string, error) {
			dir := copyDir(t, luDirs[m])
			res, err := ctx.Resume(dir)
			if err != nil {
				return nil, dir, err
			}
			x, err := res.LU.Solve(b)
			return x, dir, err
		}},
	}
	sets := []struct {
		name       string
		abft, ckpt bool
		opts       func(dir string) []exadla.Option
	}{
		{"none", false, false, func(string) []exadla.Option { return nil }},
		{"ft", true, false, func(string) []exadla.Option { return []exadla.Option{exadla.WithFaultTolerance()} }},
		{"erasure", true, false, func(string) []exadla.Option { return []exadla.Option{exadla.WithErasure()} }},
		{"ckpt", false, true, func(dir string) []exadla.Option { return []exadla.Option{exadla.WithCheckpoint(dir, 1)} }},
		{"ckpt+ft", true, true, func(dir string) []exadla.Option {
			return []exadla.Option{exadla.WithCheckpoint(dir, 1), exadla.WithFaultTolerance()}
		}},
	}

	for _, e := range entries {
		var want *exadla.Matrix
		var wantErr error
		for _, set := range sets {
			for _, m := range []*exadla.Matrix{a, e.bad} {
				input := "good"
				if m == e.bad {
					input = "bad"
				}
				t.Run(e.name+"/"+set.name+"/"+input, func(t *testing.T) {
					ckptDir := t.TempDir()
					ctx := newCtx(t, append(set.opts(ckptDir),
						exadla.WithWorkers(4), exadla.WithTileSize(nb), exadla.WithTracing())...)
					got, resumedFrom, err := e.run(ctx, m)

					verifies := 0
					for _, ev := range ctx.TraceLog().Events() {
						if ev.Name == "verify" {
							verifies++
						}
					}
					if (verifies > 0) != set.abft {
						t.Errorf("%d verify tasks ran, ABFT armed: %v", verifies, set.abft)
					}
					wrote, _ := os.ReadDir(ckptDir)
					if (len(wrote) > 0) != (set.ckpt && resumedFrom == "") {
						t.Errorf("%d checkpoint files in the WithCheckpoint directory, checkpointing armed: %v", len(wrote), set.ckpt)
					}
					if resumedFrom != "" {
						if kept, _ := os.ReadDir(resumedFrom); len(kept) < 2 {
							t.Errorf("resumed run wrote no checkpoint into %s", resumedFrom)
						}
					}

					if m == e.bad {
						if err == nil {
							t.Fatal("bad input factored without error")
						}
						if set.name == "none" {
							wantErr = err
							return
						}
						if fmt.Sprintf("%T", err) != fmt.Sprintf("%T", wantErr) || pivotIndex(err) != pivotIndex(wantErr) || pivotIndex(err) < 0 {
							t.Errorf("error %T %v (index %d), unprotected run's %T %v (index %d)",
								err, err, pivotIndex(err), wantErr, wantErr, pivotIndex(wantErr))
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if set.name == "none" {
						want = got
						return
					}
					rows, cols := got.Dims()
					for j := 0; j < cols; j++ {
						for i := 0; i < rows; i++ {
							if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("entry (%d,%d): %x, unprotected run's %x", i, j, math.Float64bits(g), math.Float64bits(w))
							}
						}
					}
				})
			}
		}
	}
}
