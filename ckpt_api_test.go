package exadla_test

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"exadla"
	"exadla/internal/ckpt"
)

// rewindCheckpoints deletes the newest checkpoint files in dir, keeping
// `keep` of them — simulating a run that died after writing only the
// earlier snapshots.
func rewindCheckpoints(t *testing.T, dir string, keep int) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) <= keep {
		t.Fatalf("only %d checkpoints on disk, cannot keep %d and delete some", len(names), keep)
	}
	for _, n := range names[keep:] {
		if err := os.Remove(filepath.Join(dir, n)); err != nil {
			t.Fatal(err)
		}
	}
}

func bitwiseEqual(t *testing.T, got, want *exadla.Matrix, n int) {
	t.Helper()
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("entry (%d,%d): %x != %x", i, j, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// TestCheckpointResumeCholeskyBitwise: factor with checkpointing, rewind
// the checkpoint directory to an earlier snapshot (as if the process had
// died there), Resume on a fresh Context, and get the identical factor —
// bit for bit.
func TestCheckpointResumeCholeskyBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const n = 240
	a, _, _ := spdSystem(t, rng, n)
	dir := t.TempDir()

	ctx := newCtx(t, exadla.WithTileSize(48), exadla.WithCheckpoint(dir, 1))
	f, err := ctx.Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := f.L()

	rewindCheckpoints(t, dir, 2)

	ctx2 := newCtx(t, exadla.WithTileSize(48))
	res, err := ctx2.Resume(dir)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if res.Op != "cholesky" || res.Cholesky == nil {
		t.Fatalf("Resume returned op %q (cholesky factor %v)", res.Op, res.Cholesky != nil)
	}
	bitwiseEqual(t, res.Cholesky.L(), want, n)
}

// TestCheckpointResumeLUBitwise: the LU analogue, checked end-to-end by
// solving with both the original and the resumed factors — identical
// pivot state and factor bits give a bitwise-identical solution.
func TestCheckpointResumeLUBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	const n = 240
	a, b, _ := spdSystem(t, rng, n)
	dir := t.TempDir()

	ctx := newCtx(t, exadla.WithTileSize(48), exadla.WithCheckpoint(dir, 1))
	f, err := ctx.LU(a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}

	rewindCheckpoints(t, dir, 1)

	ctx2 := newCtx(t, exadla.WithTileSize(48))
	res, err := ctx2.Resume(dir)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if res.Op != "lu" || res.LU == nil {
		t.Fatalf("Resume returned op %q (lu factor %v)", res.Op, res.LU != nil)
	}
	got, err := res.LU.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g, w := got.At(i, 0), want.At(i, 0)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("solution[%d]: %x != %x", i, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// TestResumeEmptyDir: resuming from a directory with no valid checkpoint
// reports ErrNoCheckpoint.
func TestResumeEmptyDir(t *testing.T) {
	ctx := newCtx(t)
	if _, err := ctx.Resume(t.TempDir()); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Errorf("Resume on empty dir = %v, want ErrNoCheckpoint", err)
	}
}

// TestOneShotSolversHonourCheckpoint: SolveSPD and Solve under
// WithCheckpoint write checkpoints like Cholesky and LU do, and return the
// solution the plain one-shot call computes, bit for bit.
func TestOneShotSolversHonourCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	const n = 240
	a, b, _ := spdSystem(t, rng, n)
	solvers := map[string]func(*exadla.Context, *exadla.Matrix, *exadla.Matrix) (*exadla.Matrix, error){
		"SolveSPD": (*exadla.Context).SolveSPD,
		"Solve":    (*exadla.Context).Solve,
	}
	for name, solve := range solvers {
		want, err := solve(newCtx(t, exadla.WithTileSize(48)), a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dir := t.TempDir()
		got, err := solve(newCtx(t, exadla.WithTileSize(48), exadla.WithCheckpoint(dir, 1)), a, b)
		if err != nil {
			t.Fatalf("%s with checkpoint: %v", name, err)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) == 0 {
			t.Errorf("%s with checkpoint left %d files in %s (%v)", name, len(ents), dir, err)
		}
		for i := 0; i < n; i++ {
			if g, w := got.At(i, 0), want.At(i, 0); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: solution[%d] %x != plain call's %x", name, i, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// TestCheckpointWriteFailureCounted: a Context armed only WithCheckpoint
// counts the failed checkpoint task in FaultStats, like any other failed
// task. The checkpoint directory is a regular file, so the write fails.
func TestCheckpointWriteFailureCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	const n = 96
	a, _, _ := spdSystem(t, rng, n)
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(t, exadla.WithTileSize(48), exadla.WithCheckpoint(notDir, 1))
	if _, err := ctx.Cholesky(a); err == nil {
		t.Fatal("Cholesky with an unwritable checkpoint directory succeeded")
	}
	if st := ctx.FaultStats(); st.Failed != 1 {
		t.Errorf("FaultStats %+v, want Failed 1", st)
	}
}
