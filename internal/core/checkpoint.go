package core

import (
	"errors"
	"fmt"

	"exadla/internal/ckpt"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// This file wires checkpoint/restart into the tile factorizations. The
// snapshot discipline exploits the dataflow scheduler itself: a "ckpt"
// task submitted between step k's tasks and step k+1's declares a Read
// on every tile, so RAW dependences place it after everything steps ≤ k
// wrote and WAR dependences stall every step-(k+1) writer until the
// snapshot is taken. The captured state is therefore the exact
// deterministic post-step-k frontier — no quiescing, no global barrier
// in the programming model, just dependences — and a resumed run replays
// the identical kernels on identical bits, finishing with a factor
// bitwise equal to an uninterrupted run.

// ErrAborted reports a run stopped by CkptOptions.AbortAtStep — the
// deterministic crash used by the restart tests and the exabench fault
// driver.
var ErrAborted = errors.New("core: factorization aborted at scheduled step")

// CkptOptions configures checkpointing of a factorization.
type CkptOptions struct {
	// Dir is the checkpoint directory (created if missing).
	Dir string
	// Every checkpoints after every Every-th panel step; 0 means 1. The
	// frontier after the last step is the finished factor, so no
	// checkpoint is written there.
	Every int
	// AbortAtStep, if positive, deterministically fails the run right
	// after panel step AbortAtStep's checkpoint is written (one is forced
	// at that step regardless of Every): every later task is poisoned and
	// skipped, and the factorization returns an error wrapping
	// ErrAborted. It models a hard crash at a known point, so restart
	// tests and benchmarks are reproducible.
	AbortAtStep int
}

func (o CkptOptions) every() int {
	if o.Every < 1 {
		return 1
	}
	return o.Every
}

// CheckpointedCholesky is Cholesky with a checkpoint written to opt.Dir
// at the configured step cadence. A checkpoint write failure fails the
// factorization (a checkpoint that silently does not exist is worse than
// a loud abort).
func CheckpointedCholesky(s sched.Scheduler, a *tile.Matrix[float64], opt CkptOptions) error {
	return CheckpointedFactor(s, OpCholesky, a, opt)
}

// CheckpointedFactor is Factor (dataflow) with checkpoints per opt, for the
// programs without pivot state: OpCholesky and OpLUNoPiv.
func CheckpointedFactor(s sched.Scheduler, op string, a *tile.Matrix[float64], opt CkptOptions) error {
	return checkpointed(s, op, a, nil, 0, opt)
}

// ResumeCholesky restarts a Cholesky factorization from a checkpoint,
// continuing to write checkpoints per opt. It returns the rebuilt tile
// matrix holding the factor on success.
func ResumeCholesky(s sched.Scheduler, c *ckpt.Checkpoint, opt CkptOptions) (*tile.Matrix[float64], error) {
	if c.Op != ckpt.OpCholesky {
		return nil, fmt.Errorf("core: checkpoint holds a %v run, not cholesky", c.Op)
	}
	return ResumeFactor(s, c, opt)
}

// ResumeFactor restarts a Cholesky or no-pivot LU factorization from a
// checkpoint written by CheckpointedFactor, continuing to write
// checkpoints per opt, and returns the rebuilt tile matrix holding the
// factor on success.
func ResumeFactor(s sched.Scheduler, c *ckpt.Checkpoint, opt CkptOptions) (*tile.Matrix[float64], error) {
	op := OpCholesky
	if c.Op == ckpt.OpLUNoPiv {
		op = OpLUNoPiv
	} else if c.Op != ckpt.OpCholesky {
		return nil, fmt.Errorf("core: checkpoint holds a %v run, which carries pivot state (use ResumeLU)", c.Op)
	}
	if c.M != c.N {
		return nil, fmt.Errorf("core: %v checkpoint with non-square %d×%d matrix", c.Op, c.M, c.N)
	}
	a := tile.FromColMajor(c.M, c.N, c.Data, c.M, c.NB)
	if c.Step > a.NT {
		return nil, fmt.Errorf("core: checkpoint step %d beyond %d panel steps", c.Step, a.NT)
	}
	return a, checkpointed(s, op, a, nil, c.Step, opt)
}

// CheckpointedLU is LU with checkpoints: the snapshot additionally
// carries the pivot vectors and elimination stacks of the completed
// steps, which the resumed factors need both to continue and to solve.
func CheckpointedLU(s sched.Scheduler, a *tile.Matrix[float64], opt CkptOptions) (*LUFactors[float64], error) {
	f := newLUFactors(a)
	return f, checkpointed(s, OpLU, a, f, 0, opt)
}

// ResumeLU restarts an LU factorization from a checkpoint.
func ResumeLU(s sched.Scheduler, c *ckpt.Checkpoint, opt CkptOptions) (*LUFactors[float64], error) {
	if c.Op != ckpt.OpLU {
		return nil, fmt.Errorf("core: checkpoint holds a %v run, not lu", c.Op)
	}
	a := tile.FromColMajor(c.M, c.N, c.Data, c.M, c.NB)
	kt := min(a.MT, a.NT)
	if c.Step > kt {
		return nil, fmt.Errorf("core: checkpoint step %d beyond %d panel steps", c.Step, kt)
	}
	f := newLUFactors(a)
	if len(c.DiagPiv) > len(f.DiagPiv) || len(c.StackL) > len(f.StackL) || len(c.StackPiv) > len(f.StackPiv) {
		return nil, fmt.Errorf("core: checkpoint pivot state does not fit a %d×%d tile grid", a.MT, a.NT)
	}
	copy(f.DiagPiv, c.DiagPiv)
	copy(f.StackL, c.StackL)
	copy(f.StackPiv, c.StackPiv)
	return f, checkpointed(s, OpLU, a, f, c.Step, opt)
}

// checkpointed runs op's program from panel step from with the snapshot
// hook installed, and waits for it. f is the OpLU pivot state, nil otherwise.
func checkpointed(s sched.Scheduler, op string, a *tile.Matrix[float64], f *LUFactors[float64], from int, opt CkptOptions) error {
	es := &errState{}
	submitProgram(s, op, a, f, es, false, from, ckptHook(s, op, a, f, opt))
	return finishErr(es, s)
}

// ckptHook returns the afterStep callback that injects the snapshot task
// (and, at AbortAtStep, the abort task) into the DAG. f is non-nil for LU.
func ckptHook(s sched.Scheduler, op string, a *tile.Matrix[float64], f *LUFactors[float64], opt CkptOptions) func(k int) {
	kt := min(a.MT, a.NT)
	tag := map[string]ckpt.Op{OpCholesky: ckpt.OpCholesky, OpLUNoPiv: ckpt.OpLUNoPiv, OpLU: ckpt.OpLU}[op]
	allTiles := func() []sched.Handle {
		hs := make([]sched.Handle, 0, a.MT*a.NT)
		for j := 0; j < a.NT; j++ {
			for i := 0; i < a.MT; i++ {
				hs = append(hs, a.Handle(i, j))
			}
		}
		return hs
	}
	return func(k int) {
		abortHere := opt.AbortAtStep > 0 && k == opt.AbortAtStep
		if !abortHere && ((k+1)%opt.every() != 0 || k == kt-1) {
			return
		}
		s.Submit(sched.Task{
			Name:  "ckpt",
			Reads: allTiles(),
			FnErr: func() error {
				c := &ckpt.Checkpoint{
					Op: tag, Step: k + 1,
					M: a.M, N: a.N, NB: a.NB,
					Data: a.ToColMajor(),
				}
				if f != nil {
					// Reference the completed steps' pivot state directly:
					// each entry is written once (by a task that
					// happens-before this snapshot via its tile writes) and
					// never mutated.
					c.DiagPiv = f.DiagPiv[:min(k+1, len(f.DiagPiv))]
					c.StackL = f.StackL
					c.StackPiv = f.StackPiv
				}
				if _, err := ckpt.Save(opt.Dir, c); err != nil {
					return sched.Permanent(fmt.Errorf("core: checkpoint at step %d: %w", k+1, err))
				}
				return nil
			},
		})
		if abortHere {
			s.Submit(sched.Task{
				Name:   "abort",
				Writes: allTiles(),
				FnErr: func() error {
					return sched.Permanent(fmt.Errorf("%w %d", ErrAborted, k))
				},
			})
		}
	}
}
