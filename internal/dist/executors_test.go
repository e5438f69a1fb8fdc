package dist_test

import (
	"errors"
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
// distributed coordinator alone and with two workers — and demands
// bit-identical factors from all of them. Each protected row also checks
// that its fault fired.
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
			opt := fastOpts(op, a)
			opt.LocalDelay = time.Millisecond
			c, err := runDistributed(t, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s := c.Stats(); s.TasksLocal == 0 || s.TasksCompleted != s.TasksLocal {
				t.Fatalf("zero-worker run was not fully local: %+v", s)
			}
			return c.Result()
		}},
		{"dist-2-workers", func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64] {
			opt := fastOpts(op, a)
			opt.WaitWorkers = 2
			c, err := runDistributed(t, opt, make([]dist.WorkerOptions, 2))
			if err != nil {
				t.Fatal(err)
			}
			if s := c.Stats(); s.TasksLocal != 0 {
				t.Fatalf("two-worker run executed %d tasks locally", s.TasksLocal)
			}
			return c.Result()
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
