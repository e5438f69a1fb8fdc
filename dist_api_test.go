package exadla_test

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"exadla"
)

// localCholesky is the single-process reference for the distributed runs.
func localCholesky(t *testing.T, a *exadla.Matrix) *exadla.Matrix {
	t.Helper()
	ctx := exadla.NewContext(exadla.WithWorkers(2), exadla.WithTileSize(16))
	defer ctx.Close()
	f, err := ctx.Cholesky(a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	return f.L()
}

func TestServeDistMatchesLocal(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(41))
	a := exadla.RandomSPD(rng, n)
	want := localCholesky(t, a)

	job, err := exadla.ServeDist("127.0.0.1:0", a.Clone(), exadla.DistConfig{
		TileSize: 16,
		Lease:    500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := exadla.JoinDist(job.Addr(), exadla.DistChaos{}); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	got, err := job.Run()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// The distributed result is the full in-place factorization (lower
	// triangle holds L); compare that triangle against the factor object.
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("distributed L(%d,%d)=%v differs from local %v", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
	s := job.Stats()
	if s.WorkersJoined != 3 || s.TasksCompleted == 0 {
		t.Errorf("unexpected stats: %+v", s)
	}
}

func TestServeDistNoWorkersDegradesLocally(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(42))
	a := exadla.RandomSPD(rng, n)
	want := localCholesky(t, a)

	job, err := exadla.ServeDist("127.0.0.1:0", a.Clone(), exadla.DistConfig{TileSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	got, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("local-degraded L(%d,%d) differs", i, j)
			}
		}
	}
	if s := job.Stats(); s.TasksLocal == 0 {
		t.Errorf("no worker ever joined but TasksLocal=0: %+v", s)
	}
}

func TestResumeDist(t *testing.T) {
	const n = 96
	rng := rand.New(rand.NewSource(43))
	a := exadla.RandomSPD(rng, n)
	want := localCholesky(t, a)
	dir := t.TempDir()

	// First run: checkpoint every 2 panel steps, then simulate coordinator
	// loss by resuming from the snapshot directory in a fresh job.
	job, err := exadla.ServeDist("127.0.0.1:0", a.Clone(), exadla.DistConfig{
		TileSize:        16,
		CheckpointDir:   dir,
		CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if job.Stats().CheckpointsSaved == 0 {
		t.Fatal("no checkpoints were written")
	}

	resumed, err := exadla.ResumeDist("127.0.0.1:0", exadla.DistConfig{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("resumed L(%d,%d) differs", i, j)
			}
		}
	}
}

// TestResumeDistTakesCheckpointOp resumes a no-pivot LU checkpoint with an
// empty DistConfig.Op: the op comes from the checkpoint, and the factor is
// bitwise the uninterrupted run's. An Op the checkpoint contradicts is
// refused with ErrDistCheckpointOp.
func TestResumeDistTakesCheckpointOp(t *testing.T) {
	const n = 96
	a := exadla.RandomSPD(rand.New(rand.NewSource(44)), n)
	dir := t.TempDir()
	job, err := exadla.ServeDist("127.0.0.1:0", a.Clone(), exadla.DistConfig{
		Op: exadla.DistLUNoPiv, TileSize: 16, CheckpointDir: dir, CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := exadla.ResumeDist("127.0.0.1:0", exadla.DistConfig{Op: exadla.DistCholesky, CheckpointDir: dir}); !errors.Is(err, exadla.ErrDistCheckpointOp) {
		t.Errorf("resuming a lunp checkpoint as cholesky: %v, want ErrDistCheckpointOp", err)
	}
	resumed, err := exadla.ResumeDist("127.0.0.1:0", exadla.DistConfig{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if op := resumed.Status().Op; op != exadla.DistLUNoPiv {
		t.Errorf("resumed job runs %q, want the checkpoint's %q", op, exadla.DistLUNoPiv)
	}
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("resumed L\\U(%d,%d) differs", i, j)
			}
		}
	}
}
