package core_test

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/ckpt"
	"exadla/internal/core"
	"exadla/internal/ft"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// TestCheckpointedCholeskyRestartBitwise: a run aborted mid-factorization
// (deterministic crash after step 1's checkpoint) resumes from the latest
// checkpoint and finishes with a factor bitwise identical to an
// uninterrupted run.
func TestCheckpointedCholeskyRestartBitwise(t *testing.T) {
	const n, nb, seed = 192, 48, 60
	aD, want := cleanCholesky(t, n, nb, seed)
	dir := t.TempDir()
	opt := core.CkptOptions{Dir: dir, Every: 1}

	a := tile.FromColMajor(n, n, append([]float64(nil), aD...), n, nb)
	r := sched.New(4)
	abortOpt := opt
	abortOpt.AbortAtStep = 1
	_, err := core.Protect(r, core.OpCholesky, a, &abortOpt, nil)
	r.Shutdown()
	if !errors.Is(err, core.ErrAborted) {
		t.Fatalf("aborted run returned %v, want ErrAborted", err)
	}

	c, path, err := ckpt.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Step != 2 {
		t.Fatalf("latest checkpoint %s at step %d, want 2", path, c.Step)
	}

	r2 := sched.New(4)
	defer r2.Shutdown()
	a2, _, err := core.Resume(r2, c, &opt, nil)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if d := lowerDiff(n, a2.ToColMajor(), want); d != 0 {
		t.Errorf("resumed factor differs from uninterrupted run by %g", d)
	}
	// The resumed run kept checkpointing past the restart point.
	c2, _, err := ckpt.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Step <= c.Step {
		t.Errorf("resumed run wrote no new checkpoint (latest still step %d)", c2.Step)
	}
}

// TestCheckpointedCholeskySparseCadence: with Every larger than the abort
// step, the only checkpoint is the one forced at AbortAtStep, and the
// resume is still bitwise exact.
func TestCheckpointedCholeskySparseCadence(t *testing.T) {
	const n, nb, seed = 192, 48, 60
	aD, want := cleanCholesky(t, n, nb, seed)
	dir := t.TempDir()

	a := tile.FromColMajor(n, n, append([]float64(nil), aD...), n, nb)
	r := sched.New(4)
	_, err := core.Protect(r, core.OpCholesky, a, &core.CkptOptions{Dir: dir, Every: 10, AbortAtStep: 2}, nil)
	r.Shutdown()
	if !errors.Is(err, core.ErrAborted) {
		t.Fatalf("aborted run returned %v, want ErrAborted", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("Every=10 wrote %d checkpoints, want only the forced one", len(ents))
	}
	c, _, err := ckpt.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Step != 3 {
		t.Fatalf("forced checkpoint at step %d, want 3", c.Step)
	}
	r2 := sched.New(4)
	defer r2.Shutdown()
	a2, _, err := core.Resume(r2, c, &core.CkptOptions{Dir: dir, Every: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := lowerDiff(n, a2.ToColMajor(), want); d != 0 {
		t.Errorf("resumed factor differs from uninterrupted run by %g", d)
	}
}

// TestCheckpointedCholeskyCleanRun: an uninterrupted checkpointed run
// produces the plain factor bitwise and leaves resumable checkpoints
// behind.
func TestCheckpointedCholeskyCleanRun(t *testing.T) {
	const n, nb, seed = 192, 48, 60
	aD, want := cleanCholesky(t, n, nb, seed)
	dir := t.TempDir()
	a := tile.FromColMajor(n, n, append([]float64(nil), aD...), n, nb)
	r := sched.New(4)
	defer r.Shutdown()
	if _, err := core.Protect(r, core.OpCholesky, a, &core.CkptOptions{Dir: dir}, nil); err != nil {
		t.Fatal(err)
	}
	if d := lowerDiff(n, a.ToColMajor(), want); d != 0 {
		t.Errorf("checkpointed factor differs from plain by %g", d)
	}
	// Delete the trailing checkpoint; resuming from the one before still
	// reproduces the factor — the "rewind further" recovery path.
	c, path, err := ckpt.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	c2, _, err := ckpt.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Step >= c.Step {
		t.Fatalf("after deleting step-%d checkpoint, Latest is step %d", c.Step, c2.Step)
	}
	r2 := sched.New(4)
	defer r2.Shutdown()
	a2, _, err := core.Resume(r2, c2, &core.CkptOptions{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := lowerDiff(n, a2.ToColMajor(), want); d != 0 {
		t.Errorf("factor resumed from step %d differs by %g", c2.Step, d)
	}
}

// TestCheckpointedLURestartBitwise: LU restart reproduces the packed
// factor bitwise, and the restored pivot/stack state actually solves —
// the part of the snapshot a matrix-only checkpoint would lose.
func TestCheckpointedLURestartBitwise(t *testing.T) {
	const n, nb, seed = 192, 48, 61
	aD, want := cleanLU(t, n, nb, seed)
	dir := t.TempDir()
	opt := core.CkptOptions{Dir: dir, Every: 1}

	a := tile.FromColMajor(n, n, append([]float64(nil), aD...), n, nb)
	r := sched.New(4)
	abortOpt := opt
	abortOpt.AbortAtStep = 1
	_, err := core.Protect(r, core.OpLU, a, &abortOpt, nil)
	r.Shutdown()
	if !errors.Is(err, core.ErrAborted) {
		t.Fatalf("aborted run returned %v, want ErrAborted", err)
	}

	c, _, err := ckpt.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Step != 2 {
		t.Fatalf("latest checkpoint at step %d, want 2", c.Step)
	}

	r2 := sched.New(4)
	defer r2.Shutdown()
	_, f, err := core.Resume(r2, c, &opt, nil)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if d := maxAbsDiff(f.A.ToColMajor(), want); d != 0 {
		t.Errorf("resumed LU factor differs from uninterrupted run by %g", d)
	}

	// Solve A·x = b with the resumed factors: the LU solve needs the restored
	// pivot vectors and elimination stacks of the pre-abort steps.
	rng := rand.New(rand.NewSource(62))
	xWant := matgen.Dense[float64](rng, n, 1)
	bD := make([]float64, n)
	blas.Gemv(blas.NoTrans, n, n, 1, aD, n, xWant, 1, 0, bD, 1)
	b := tile.FromColMajor(n, 1, bD, n, nb)
	if err := core.Solve(r2, f, b); err != nil {
		t.Fatal(err)
	}
	got := b.ToColMajor()
	for i := range xWant {
		if d := math.Abs(got[i] - xWant[i]); d > 1e-8 {
			t.Fatalf("solution error %g at %d using resumed factors", d, i)
		}
	}
}

// TestCheckpointWriteFailureFailsRun: an unwritable checkpoint directory
// fails the factorization instead of silently continuing unprotected.
func TestCheckpointWriteFailureFailsRun(t *testing.T) {
	const n, nb = 96, 48
	rng := rand.New(rand.NewSource(63))
	aD := matgen.DiagDomSPD[float64](rng, n)
	a := tile.FromColMajor(n, n, aD, n, nb)
	// A plain file where the checkpoint directory should be.
	parent := t.TempDir()
	dir := filepath.Join(parent, "ckpts")
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := sched.New(4)
	defer r.Shutdown()
	_, err := core.Protect(r, core.OpCholesky, a, &core.CkptOptions{Dir: dir}, nil)
	if err == nil {
		t.Fatal("run with unwritable checkpoint dir succeeded")
	}
	if errors.Is(err, core.ErrAborted) {
		t.Fatalf("write failure misreported as abort: %v", err)
	}
}

// TestResumeRejectsMismatchedOp: a checkpoint that matches no tile program
// — an unknown operation, a non-square Cholesky, a step past the end, an
// LU pivot prefix of the wrong length or naming a row it cannot swap with —
// is an error, not silent corruption.
func TestResumeRejectsMismatchedOp(t *testing.T) {
	r := sched.New(1)
	defer r.Shutdown()
	// The identity: nothing but the checkpoint's shape can fail.
	eye := func(m, n int) *tile.Matrix[float64] {
		a := tile.New[float64](m, n, 2)
		for i := 0; i < min(m, n); i++ {
			a.Set(i, i, 1)
		}
		return a
	}
	for _, c := range []*ckpt.Checkpoint{
		{Op: ckpt.Op(99), Step: 1, A: eye(4, 4)},
		{Op: ckpt.OpCholesky, Step: 1, A: eye(6, 4)},
		{Op: ckpt.OpLU, Step: 99, A: eye(4, 4)},
		{Op: ckpt.OpLU, Step: 1, A: eye(4, 4), Piv: []int{0}},
		{Op: ckpt.OpLU, Step: 1, A: eye(4, 4), Piv: []int{0, 4}},
		{Op: ckpt.OpLU, Step: 1, A: eye(4, 4), Piv: []int{1, 0}},
	} {
		if _, _, err := core.Resume(r, c, &core.CkptOptions{Dir: t.TempDir()}, nil); err == nil {
			t.Errorf("Resume accepted a %v checkpoint of a %d×%d matrix at step %d", c.Op, c.A.M, c.A.N, c.Step)
		}
	}
}

// TestProtectRejectsQR: no guard understands the QR reflector factors, so
// Protect refuses the QR programs with an error, while Factor returns them.
func TestProtectRejectsQR(t *testing.T) {
	r := sched.New(1)
	defer r.Shutdown()
	for _, op := range []string{core.OpQR, core.OpQRTree} {
		a := tile.New[float64](32, 16, 8)
		if _, err := core.Protect(r, op, a, &core.CkptOptions{Dir: t.TempDir(), Every: 1}, &core.FTOptions{}); err == nil {
			t.Errorf("Protect accepted %s", op)
		}
		if f, err := core.Factor(r, op, a, nil, false); err != nil || f.T == nil {
			t.Errorf("Factor(%s): err %v, T %v", op, err, f.T)
		}
	}
}

// TestCheckpointAndABFTCompose: with both protections armed, a Cholesky
// and an LU run write checkpoints and correct an injected flip, and a run
// aborted mid-way resumes under ABFT — checksums re-derived from the
// snapshot, a second flip corrected — to the clean run's factor, bit for
// bit. The flips add 2⁻¹⁸ to one entry of a freshly finalized diagonal
// tile: exact in binary, so the checksum discrepancy equals the flip and
// the correction restores the entry exactly.
func TestCheckpointAndABFTCompose(t *testing.T) {
	const n, nb = 192, 48
	for _, op := range []string{core.OpCholesky, core.OpLU} {
		t.Run(op, func(t *testing.T) {
			aD, want := cleanCholesky(t, n, nb, 64)
			if op == core.OpLU {
				aD, want = cleanLU(t, n, nb, 64)
			}
			flipAt := func(step int, stats *ft.Stats) core.FTOptions {
				return core.FTOptions{Stats: stats, InjectHook: func(k int, m *tile.Matrix[float64]) {
					if k == step {
						m.Tile(k, k)[nb-1] += 0x1p-18
						stats.Injected.Add(1)
					}
				}}
			}
			r := sched.New(4, sched.WithRetry(3, 0))
			defer r.Shutdown()

			var stats ft.Stats
			dir := t.TempDir()
			a := tile.FromColMajor(n, n, append([]float64(nil), aD...), n, nb)
			fo := flipAt(1, &stats)
			if _, err := core.Protect(r, op, a, &core.CkptOptions{Dir: dir}, &fo); err != nil {
				t.Fatal(err)
			}
			if ents, _ := os.ReadDir(dir); len(ents) == 0 {
				t.Error("checkpointed ABFT run wrote no checkpoint")
			}
			if stats.Corrected.Load() < 1 {
				t.Errorf("injected flip not corrected: %d corrected", stats.Corrected.Load())
			}
			if d := maxAbsDiff(a.ToColMajor(), want); d != 0 {
				t.Errorf("checkpointed ABFT factor differs from clean run by %g", d)
			}

			var rstats ft.Stats
			dir = t.TempDir()
			a = tile.FromColMajor(n, n, append([]float64(nil), aD...), n, nb)
			fo = flipAt(1, &rstats)
			if _, err := core.Protect(r, op, a, &core.CkptOptions{Dir: dir, AbortAtStep: 1}, &fo); !errors.Is(err, core.ErrAborted) {
				t.Fatalf("aborted run returned %v, want ErrAborted", err)
			}
			c, _, err := ckpt.Latest(dir)
			if err != nil {
				t.Fatal(err)
			}
			fo = flipAt(2, &rstats)
			got, _, err := core.Resume(r, c, &core.CkptOptions{Dir: dir}, &fo)
			if err != nil {
				t.Fatal(err)
			}
			if rstats.Corrected.Load() < 2 {
				t.Errorf("flips before and after the restart: %d corrected, want 2", rstats.Corrected.Load())
			}
			if d := maxAbsDiff(got.ToColMajor(), want); d != 0 {
				t.Errorf("resumed ABFT factor differs from clean run by %g", d)
			}
		})
	}
}
