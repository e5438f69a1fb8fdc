package dist_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"exadla/internal/ckpt"
	"exadla/internal/core"
	"exadla/internal/dist"
	"exadla/internal/ft"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// TestEveryExecutorSameFactor runs each tile program that crosses the wire
// on every executor of core.Program — the in-process runtime at 1 and 4
// workers, its fork–join mode, the sequential Recorder, a checkpointed run
// aborted mid-way and resumed, the same under ABFT with a corrected flip,
// with an erasure-rebuilt tile loss and with checkpointing, the
// distributed coordinator alone and with two workers, and checkpoints
// crossing between the two executors both ways — and demands bit-identical
// factors from all of them. Each protected row also checks that its fault
// fired.
func TestEveryExecutorSameFactor(t *testing.T) {
	const seed, n, nb = 41, 96, 16
	inProcess := func(s sched.Scheduler, forkJoin bool) func(*testing.T, string, *tile.Matrix[float64]) *tile.Matrix[float64] {
		return func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64] {
			if _, err := core.Factor(s, op, a, nil, forkJoin); err != nil {
				t.Fatal(err)
			}
			return a
		}
	}
	// flip adds 2⁻¹⁸ to one entry of the diagonal tile panel step k has
	// just finalized: exact in binary, so the checksum discrepancy is the
	// flip itself and the correction restores the entry bit for bit.
	flip := func(k int, stats *ft.Stats) *core.FTOptions {
		return &core.FTOptions{Stats: stats, InjectHook: func(step int, m *tile.Matrix[float64]) {
			if step == k {
				m.Tile(k, k)[nb-1] += 0x1p-18
				stats.Injected.Add(1)
			}
		}}
	}
	fired := func(t *testing.T, what string, count int64) {
		t.Helper()
		if count < 1 {
			t.Fatalf("the fault never fired: %d %s", count, what)
		}
	}
	abortAt2 := func(t *testing.T, op string, a *tile.Matrix[float64], s sched.Scheduler, fo *core.FTOptions) *ckpt.Checkpoint {
		t.Helper()
		dir := t.TempDir()
		if _, err := core.Protect(s, op, a, &core.CkptOptions{Dir: dir, AbortAtStep: 2}, fo); !errors.Is(err, core.ErrAborted) {
			t.Fatalf("aborted run returned %v, want ErrAborted", err)
		}
		c, _, err := ckpt.Latest(dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	r1, r4, rft := sched.New(1), sched.New(4), sched.New(4, sched.WithRetry(3, 0))
	defer r1.Shutdown()
	defer r4.Shutdown()
	defer rft.Shutdown()
	// onDist runs opt on the coordinator alone (workers 0), which must
	// then run every task itself, or with that many workers, which must
	// run them all.
	onDist := func(t *testing.T, opt dist.Options, workers int) (*dist.Coordinator, error) {
		t.Helper()
		if workers == 0 {
			opt.LocalDelay = time.Millisecond
		} else {
			opt.WaitWorkers = workers
		}
		c, err := runDistributed(t, opt, make([]dist.WorkerOptions, workers))
		if s := c.Stats(); workers == 0 && (s.TasksLocal == 0 || s.TasksCompleted != s.TasksLocal) {
			t.Fatalf("zero-worker run was not fully local: %+v", s)
		} else if workers > 0 && s.TasksLocal != 0 {
			t.Fatalf("%d-worker run executed %d tasks locally", workers, s.TasksLocal)
		}
		return c, err
	}
	// coreToDist resumes the checkpoint of an aborted core.Protect run on
	// the coordinator.
	coreToDist := func(workers int) func(*testing.T, string, *tile.Matrix[float64]) *tile.Matrix[float64] {
		return func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64] {
			dir := t.TempDir()
			if _, err := ckpt.Save(dir, abortAt2(t, op, a, r4, nil)); err != nil {
				t.Fatal(err)
			}
			opt := fastOpts(op, nil)
			opt.Ckpt, opt.Resume = &core.CkptOptions{Dir: dir}, true
			c, err := onDist(t, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			return c.Result()
		}
	}
	executors := []struct {
		name string
		run  func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64]
	}{
		{"runtime1", inProcess(r1, false)},
		{"runtime4", inProcess(r4, false)},
		{"forkjoin", inProcess(r4, true)},
		{"recorder", inProcess(sched.NewRecorder(), false)},
		{"ckpt-abort-resume", func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64] {
			c := abortAt2(t, op, a, r4, nil)
			done, _, err := core.Resume(r4, c, &core.CkptOptions{Dir: t.TempDir()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return done
		}},
		{"abft-flip", func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64] {
			var stats ft.Stats
			if _, err := core.Protect(rft, op, a, nil, flip(2, &stats)); err != nil {
				t.Fatal(err)
			}
			fired(t, "corrected", stats.Corrected.Load())
			return a
		}},
		{"abft-erasure-loss", func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64] {
			var stats ft.Stats
			fo := &core.FTOptions{Stats: &stats, Erasure: true, LoseTiles: []core.TileLoss{{Step: 2, I: 3, J: 1}}}
			if _, err := core.Protect(rft, op, a, nil, fo); err != nil {
				t.Fatal(err)
			}
			fired(t, "tiles reconstructed", stats.TilesReconstructed.Load())
			return a
		}},
		{"ckpt-abft", func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64] {
			var stats ft.Stats
			if _, err := core.Protect(rft, op, a, &core.CkptOptions{Dir: t.TempDir()}, flip(2, &stats)); err != nil {
				t.Fatal(err)
			}
			fired(t, "corrected", stats.Corrected.Load())
			return a
		}},
		{"ckpt-abort-resume-abft", func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64] {
			var stats ft.Stats
			c := abortAt2(t, op, a, rft, &core.FTOptions{Stats: &stats})
			done, _, err := core.Resume(rft, c, &core.CkptOptions{Dir: t.TempDir()}, flip(4, &stats))
			if err != nil {
				t.Fatal(err)
			}
			fired(t, "corrected", stats.Corrected.Load())
			return done
		}},
		{"dist-0-workers", func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64] {
			c, err := onDist(t, fastOpts(op, a), 0)
			if err != nil {
				t.Fatal(err)
			}
			return c.Result()
		}},
		{"dist-2-workers", func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64] {
			c, err := onDist(t, fastOpts(op, a), 2)
			if err != nil {
				t.Fatal(err)
			}
			return c.Result()
		}},
		{"ckpt-core-to-dist-0-workers", coreToDist(0)},
		{"ckpt-core-to-dist-2-workers", coreToDist(2)},
		{"ckpt-dist-to-core", func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64] {
			dir := t.TempDir()
			opt := fastOpts(op, a)
			opt.Ckpt = &core.CkptOptions{Dir: dir, AbortAtStep: 2}
			if _, err := onDist(t, opt, 2); !errors.Is(err, core.ErrAborted) {
				t.Fatalf("aborted coordinator returned %v, want ErrAborted", err)
			}
			c, _, err := ckpt.Latest(dir)
			if err != nil {
				t.Fatal(err)
			}
			done, _, err := core.Resume(r4, c, &core.CkptOptions{Dir: t.TempDir()}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return done
		}},
	}
	for _, op := range []string{core.OpCholesky, core.OpLUNoPiv} {
		var want []float64
		for _, ex := range executors {
			t.Run(op+"/"+ex.name, func(t *testing.T) {
				got := ex.run(t, op, spdTiled(seed, n, nb)).ToColMajor()
				if want == nil {
					want = got
					return
				}
				bitwiseEqual(t, got, want, op+" on "+ex.name)
			})
		}
	}
}

// TestExecutorsCheckpointSameSteps runs one CkptOptions on core.Protect and
// on the coordinator: both must write the same checkpoint files, byte for
// byte, none of them after the last panel step. Each cut is a ckpt span on
// the coordinator's lane, so every dependence edge of the merged trace
// names a recorded task.
func TestExecutorsCheckpointSameSteps(t *testing.T) {
	const seed, n, nb = 41, 96, 16 // 6 panel steps
	rt := sched.New(4)
	defer rt.Shutdown()
	// files lists dir's file names in order and reads their bytes.
	files := func(t *testing.T, dir string) ([]string, map[string][]byte) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		data := map[string][]byte{}
		for _, e := range ents {
			names = append(names, e.Name())
			if data[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return names, data
	}
	for _, op := range []string{core.OpCholesky, core.OpLUNoPiv} {
		t.Run(op, func(t *testing.T) {
			inDir, distDir := t.TempDir(), t.TempDir()
			if _, err := core.Protect(rt, op, spdTiled(seed, n, nb), &core.CkptOptions{Dir: inDir, Every: 2}, nil); err != nil {
				t.Fatal(err)
			}
			opt := fastOpts(op, spdTiled(seed, n, nb))
			opt.Ckpt = &core.CkptOptions{Dir: distDir, Every: 2}
			opt.WaitWorkers = 2
			c, err := runDistributed(t, opt, make([]dist.WorkerOptions, 2))
			if err != nil {
				t.Fatal(err)
			}
			ran, cuts := map[int]bool{}, 0
			spans := okSpans(c.ClusterLog())
			for _, e := range spans {
				ran[e.ID] = true
				if e.Name == "ckpt" && e.Proc == 0 {
					cuts++
				}
			}
			for _, e := range spans {
				for _, d := range e.Deps {
					if !ran[d] {
						t.Fatalf("%s (task %d) depends on task %d, which no span records", e.Name, e.ID, d)
					}
				}
			}
			if cuts != 2 {
				t.Errorf("merged trace holds %d ckpt spans on the coordinator, want 2", cuts)
			}
			inNames, in := files(t, inDir)
			distNames, out := files(t, distDir)
			want := []string{"ckpt-000002.ckpt", "ckpt-000004.ckpt"}
			if !slices.Equal(inNames, want) || !slices.Equal(distNames, want) {
				t.Fatalf("checkpoint files in-process %v, dist %v; want %v in both", inNames, distNames, want)
			}
			for _, name := range want {
				if !bytes.Equal(in[name], out[name]) {
					t.Errorf("%s differs between the executors", name)
				}
			}
		})
	}
}

// TestExecutorsRefuseStepBeyondProgram hands both executors a checkpoint
// with valid seals whose step lies past the last panel step: each must
// refuse it rather than return the unfactored input as the factor.
func TestExecutorsRefuseStepBeyondProgram(t *testing.T) {
	const n, nb = 64, 16 // 4 panel steps
	a := spdTiled(7, n, nb)
	c := &ckpt.Checkpoint{Op: ckpt.OpCholesky, Step: 9, A: a}
	dir := t.TempDir()
	if _, err := ckpt.Save(dir, c); err != nil {
		t.Fatal(err)
	}
	rt := sched.New(2)
	defer rt.Shutdown()
	if _, _, err := core.Resume(rt, c, nil, nil); err == nil {
		t.Error("core.Resume accepted a checkpoint at step 9 of 4")
	}
	opt := fastOpts(core.OpCholesky, nil)
	opt.Ckpt, opt.Resume = &core.CkptOptions{Dir: dir}, true
	if co, err := dist.NewCoordinator("127.0.0.1:0", opt); err == nil {
		t.Errorf("coordinator accepted a checkpoint at step 9 of 4; Run returned %v", co.Run())
	}
}
