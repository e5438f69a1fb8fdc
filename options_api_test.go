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
	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/sched"
	"exadla/internal/tile"
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

// sameBits fails t unless got and want agree bit for bit on every entry
// keep selects.
func sameBits(t *testing.T, got, want *exadla.Matrix, keep func(i, j int) bool) {
	t.Helper()
	gr, gc := got.Dims()
	if wr, wc := want.Dims(); gr != wr || gc != wc {
		t.Fatalf("result is %d×%d, want %d×%d", gr, gc, wr, wc)
	}
	for j := 0; j < gc; j++ {
		for i := 0; i < gr; i++ {
			if g, w := got.At(i, j), want.At(i, j); keep(i, j) && math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("entry (%d,%d): %x, eager path's %x", i, j, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// TestEntryPointsMatchEagerConversion: the entry points whose operands
// are tiled by the convert tasks of their walk, and whose results are
// copied out by its gather tasks, return the bits of the eager path —
// tile.FromColMajor over the whole operand, the core driver, ToColMajor —
// with and without a guard armed, at n = 1536 on tiles that do not divide
// it. QR has no guard: its rows show the guards leave it alone.
func TestEntryPointsMatchEagerConversion(t *testing.T) {
	const n, m, nq, nb, nrhs = 1536, 1536, 300, 100, 3
	rng := rand.New(rand.NewSource(97))
	spd := exadla.RandomSPD(rng, n)
	gen := exadla.RandomGeneral(rng, n, n)
	tall := exadla.RandomGeneral(rng, m, nq)
	b := exadla.RandomGeneral(rng, n, nrhs)

	s := sched.New(4)
	defer s.Shutdown()
	tiled := func(a *exadla.Matrix) *tile.Matrix[float64] {
		r, c := a.Dims()
		return tile.FromColMajor(r, c, a.Data(), r, nb)
	}
	untiled := func(a *tile.Matrix[float64]) *exadla.Matrix { return exadla.FromSlice(a.M, a.N, a.ToColMajor()) }
	solved := func(f *core.Factors[float64]) *exadla.Matrix {
		tb := tiled(b)
		if err := core.Solve(s, f, tb); err != nil {
			t.Fatal(err)
		}
		return untiled(tb)
	}
	qt := func(f *core.Factors[float64]) *exadla.Matrix {
		tb := tiled(b)
		core.ApplyQT(s, f, tb)
		s.Wait()
		return untiled(tb)
	}
	chol, err := core.Factor(s, core.OpCholesky, tiled(spd), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := core.LU(s, tiled(gen))
	if err != nil {
		t.Fatal(err)
	}
	qrf, qrt := core.QR(s, tiled(tall)), core.QRTree(s, tiled(tall))
	ta, tb := tiled(spd), tiled(b)
	if err := core.Posv(s, ta, tb); err != nil {
		t.Fatal(err)
	}
	posv := untiled(tb)
	tb = tiled(b)
	if _, err := core.Gesv(s, tiled(gen), tb); err != nil {
		t.Fatal(err)
	}
	gesv := untiled(tb)
	tb = tiled(b)
	core.Gels(s, tiled(tall), tb)
	gels := untiled(tb)
	inv := tiled(spd)
	if err := core.Potri(s, inv); err != nil {
		t.Fatal(err)
	}

	qtb := func(f *exadla.QRFactor, err error) (*exadla.Matrix, error) {
		if err != nil {
			return nil, err
		}
		return f.QTb(b)
	}
	all := func(i, j int) bool { return true }
	lower := func(i, j int) bool { return i >= j }
	upper := func(i, j int) bool { return i <= j }
	rows := func(r int) func(i, j int) bool { return func(i, j int) bool { return i < r } }
	type entry struct {
		name string
		keep func(i, j int) bool
		want *exadla.Matrix
		run  func(ctx *exadla.Context) (*exadla.Matrix, error)
	}
	entries := []entry{
		{"SolveSPD", all, posv, func(ctx *exadla.Context) (*exadla.Matrix, error) { return ctx.SolveSPD(spd, b) }},
		{"Solve", all, gesv, func(ctx *exadla.Context) (*exadla.Matrix, error) { return ctx.Solve(gen, b) }},
		{"LeastSquares", rows(nq), gels, func(ctx *exadla.Context) (*exadla.Matrix, error) {
			x, err := ctx.LeastSquares(tall, b)
			if err != nil {
				return nil, err
			}
			padded := exadla.NewMatrix(n, nrhs)
			for j := 0; j < nrhs; j++ {
				for i := 0; i < nq; i++ {
					padded.Set(i, j, x.At(i, j))
				}
			}
			return padded, nil
		}},
		{"Cholesky", lower, untiled(chol.A), func(ctx *exadla.Context) (*exadla.Matrix, error) {
			f, err := ctx.Cholesky(spd)
			if err != nil {
				return nil, err
			}
			return f.L(), nil
		}},
		{"Cholesky.Solve", all, solved(chol), func(ctx *exadla.Context) (*exadla.Matrix, error) {
			f, err := ctx.Cholesky(spd)
			if err != nil {
				return nil, err
			}
			return f.Solve(b)
		}},
		{"LU.Solve", all, solved(lu), func(ctx *exadla.Context) (*exadla.Matrix, error) {
			f, err := ctx.LU(gen)
			if err != nil {
				return nil, err
			}
			return f.Solve(b)
		}},
		{"QR.R", upper, untiled(qrf.A), func(ctx *exadla.Context) (*exadla.Matrix, error) {
			f, err := ctx.QR(tall)
			if err != nil {
				return nil, err
			}
			r := f.R()
			padded := exadla.NewMatrix(m, nq)
			for j := 0; j < nq; j++ {
				for i := 0; i <= j; i++ {
					padded.Set(i, j, r.At(i, j))
				}
			}
			return padded, nil
		}},
		{"QR.QTb", all, qt(qrf), func(ctx *exadla.Context) (*exadla.Matrix, error) { return qtb(ctx.QR(tall)) }},
		{"QRTree.QTb", all, qt(qrt), func(ctx *exadla.Context) (*exadla.Matrix, error) { return qtb(ctx.QRTree(tall)) }},
		{"InvertSPD", lower, untiled(inv), func(ctx *exadla.Context) (*exadla.Matrix, error) { return ctx.InvertSPD(spd) }},
	}
	guards := []struct {
		name string
		opts func(dir string) []exadla.Option
	}{
		{"none", func(string) []exadla.Option { return nil }},
		{"ft", func(string) []exadla.Option { return []exadla.Option{exadla.WithFaultTolerance()} }},
		{"ckpt", func(dir string) []exadla.Option { return []exadla.Option{exadla.WithCheckpoint(dir, 8)} }},
	}
	for _, e := range entries {
		for _, g := range guards {
			t.Run(e.name+"/"+g.name, func(t *testing.T) {
				ctx := newCtx(t, append(g.opts(t.TempDir()), exadla.WithWorkers(4), exadla.WithTileSize(nb))...)
				got, err := e.run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, got, e.want, e.keep)
			})
		}
	}
}

// TestOperandsFreeOnReturn: a caller may overwrite A and B the moment an
// entry point returns, on its error path too. A factor whose A is then
// overwritten still solves to the bits of one computed on an untouched
// copy, and the trace taken at return already holds every convert task:
// none was left running. Under -race the overwrite itself is the check.
func TestOperandsFreeOnReturn(t *testing.T) {
	const n, nb = 300, 64
	tiles := func(rows, cols int) int { return ((rows + nb - 1) / nb) * ((cols + nb - 1) / nb) }
	a, b, _ := spdSystem(t, rand.New(rand.NewSource(98)), n)
	notSPD := a.Clone()
	notSPD.Set(n/2, n/2, -1)
	ref, err := newCtx(t, exadla.WithTileSize(nb)).Cholesky(a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	scribble := func(m *exadla.Matrix) {
		for i := range m.Data() {
			m.Data()[i] = math.NaN()
		}
	}

	for _, c := range []struct {
		name     string
		opts     []exadla.Option
		converts int
		run      func(ctx *exadla.Context, a, b *exadla.Matrix) (*exadla.CholeskyFactor, error)
	}{
		{"Cholesky", nil, tiles(n, n), func(ctx *exadla.Context, a, _ *exadla.Matrix) (*exadla.CholeskyFactor, error) {
			return ctx.Cholesky(a)
		}},
		{"Cholesky+ckpt", []exadla.Option{exadla.WithCheckpoint(t.TempDir(), 2)}, tiles(n, n), func(ctx *exadla.Context, a, _ *exadla.Matrix) (*exadla.CholeskyFactor, error) {
			return ctx.Cholesky(a)
		}},
		// ABFT fills A before its walk: no convert task, same bits.
		{"Cholesky+ft", []exadla.Option{exadla.WithFaultTolerance()}, 0, func(ctx *exadla.Context, a, _ *exadla.Matrix) (*exadla.CholeskyFactor, error) {
			return ctx.Cholesky(a)
		}},
		{"SolveSPD", nil, tiles(n, n) + tiles(n, 1), func(ctx *exadla.Context, a, b *exadla.Matrix) (*exadla.CholeskyFactor, error) {
			_, err := ctx.SolveSPD(a, b)
			return nil, err
		}},
	} {
		for _, input := range []*exadla.Matrix{a, notSPD} {
			name := c.name + "/good"
			if input == notSPD {
				name = c.name + "/bad"
			}
			t.Run(name, func(t *testing.T) {
				ctx := newCtx(t, append(c.opts, exadla.WithWorkers(4), exadla.WithTileSize(nb), exadla.WithTracing())...)
				ac, bc := input.Clone(), b.Clone()
				f, err := c.run(ctx, ac, bc)
				converts := 0
				for _, ev := range ctx.TraceLog().Events() {
					if ev.Name == "convert" {
						converts++
					}
				}
				scribble(ac)
				scribble(bc)
				if converts != c.converts {
					t.Errorf("%d convert tasks had finished at return, want %d", converts, c.converts)
				}
				if input == notSPD {
					if pivotIndex(err) != n/2 {
						t.Fatalf("error %v, want a NotPositiveDefiniteError at %d", err, n/2)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if f == nil {
					return
				}
				got, err := f.Solve(b)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, got, want, func(i, j int) bool { return true })
			})
		}
	}
}
