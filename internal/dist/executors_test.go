package dist_test

import (
	"errors"
	"testing"
	"time"

	"exadla/internal/ckpt"
	"exadla/internal/core"
	"exadla/internal/dist"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// TestEveryExecutorSameFactor runs each tile program that crosses the wire
// on every executor of core.Program — the in-process runtime at 1 and 4
// workers, its fork–join mode, the sequential Recorder, a checkpointed run
// aborted mid-way and resumed, the distributed coordinator alone and with
// two workers — and demands bit-identical factors from all of them.
func TestEveryExecutorSameFactor(t *testing.T) {
	const seed, n, nb = 41, 96, 16
	inProcess := func(s sched.Scheduler, forkJoin bool) func(*testing.T, string, *tile.Matrix[float64]) *tile.Matrix[float64] {
		return func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64] {
			if err := core.Factor(s, op, a, forkJoin); err != nil {
				t.Fatal(err)
			}
			return a
		}
	}
	r1, r4 := sched.New(1), sched.New(4)
	defer r1.Shutdown()
	defer r4.Shutdown()
	executors := []struct {
		name string
		run  func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64]
	}{
		{"runtime1", inProcess(r1, false)},
		{"runtime4", inProcess(r4, false)},
		{"forkjoin", inProcess(r4, true)},
		{"recorder", inProcess(sched.NewRecorder(), false)},
		{"ckpt-abort-resume", func(t *testing.T, op string, a *tile.Matrix[float64]) *tile.Matrix[float64] {
			dir := t.TempDir()
			err := core.CheckpointedFactor(r4, op, a, core.CkptOptions{Dir: dir, AbortAtStep: 2})
			if !errors.Is(err, core.ErrAborted) {
				t.Fatalf("aborted run returned %v, want ErrAborted", err)
			}
			c, _, err := ckpt.Latest(dir)
			if err != nil {
				t.Fatal(err)
			}
			done, err := core.ResumeFactor(r4, c, core.CkptOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
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
