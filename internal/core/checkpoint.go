package core

import (
	"errors"
	"fmt"

	"exadla/internal/ckpt"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// This file wires checkpoint/restart into the tile factorizations as a
// guard on the program walk. The snapshot discipline exploits the dataflow
// scheduler itself: a "ckpt" task submitted between step k's tasks and
// step k+1's declares a Read on every tile, so RAW dependences place it
// after everything steps ≤ k wrote and WAR dependences stall every
// step-(k+1) writer until the snapshot is taken. The captured state is
// therefore the exact deterministic post-step-k frontier — no quiescing, no
// global barrier in the programming model, just dependences — and a resumed
// run replays the identical kernels on identical bits, finishing with a
// factor bitwise equal to an uninterrupted run.

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

// After is the one checkpoint rule of every executor: it reports whether
// the frontier after panel step k of a kt-step program is snapshotted, and
// whether the run aborts there, right after that snapshot. Steps count
// from 0 whatever step a run resumed at, so a resumed run snapshots where
// an uninterrupted one would.
func (o CkptOptions) After(k, kt int) (snapshot, abort bool) {
	every := max(o.Every, 1)
	abort = o.AbortAtStep > 0 && k == o.AbortAtStep
	return abort || ((k+1)%every == 0 && k != kt-1), abort
}

// ckptOps tags each tile program in its checkpoints.
var ckptOps = map[string]ckpt.Op{OpCholesky: ckpt.OpCholesky, OpLUNoPiv: ckpt.OpLUNoPiv, OpLU: ckpt.OpLU}

// Restore validates checkpoint c and rebuilds what it records: the tile
// program (Cholesky, no-pivot LU or LU), the tile matrix at panel step
// c.Step — c.A itself, which the resumed run factors in place — and the
// op's side state, for LU the pivots of the completed steps. Every executor
// resumes through it, so each refuses the same bad checkpoint.
func Restore(c *ckpt.Checkpoint) (string, *tile.Matrix[float64], *Factors[float64], error) {
	op := ""
	for o, tag := range ckptOps {
		if tag == c.Op {
			op = o
		}
	}
	if op == "" {
		return "", nil, nil, fmt.Errorf("core: checkpoint holds unknown operation %v", c.Op)
	}
	a := c.A
	if op != OpLU && a.M != a.N {
		return "", nil, nil, fmt.Errorf("core: %v checkpoint with non-square %d×%d matrix", c.Op, a.M, a.N)
	}
	if kt := min(a.MT, a.NT); c.Step > kt {
		return "", nil, nil, fmt.Errorf("core: checkpoint step %d beyond %d panel steps", c.Step, kt)
	}
	f := newFactors(op, a)
	if op == OpLU {
		if want := min(c.Step*a.NB, len(f.Piv)); len(c.Piv) != want {
			return "", nil, nil, fmt.Errorf("core: LU checkpoint at step %d holds %d pivots, want %d", c.Step, len(c.Piv), want)
		}
		for r, p := range c.Piv {
			if p < r || p >= a.M {
				return "", nil, nil, fmt.Errorf("core: LU checkpoint pivot %d of row %d outside rows %d…%d", p, r, r, a.M-1)
			}
		}
		copy(f.Piv, c.Piv)
	}
	return op, a, f, nil
}

// Resume restarts the factorization checkpoint c records (see Restore) at
// its panel step, under the same protections as Protect: checkpointing
// continues per ck, and with fo the ABFT checksums, diagonal witnesses and
// erasure parity of the tiles the snapshot holds final are re-derived from
// it. It returns the rebuilt tile matrix holding the factor and its
// Factors, for LU with the pivot state restored from the checkpoint and
// completed.
func Resume(s sched.Scheduler, c *ckpt.Checkpoint, ck *CkptOptions, fo *FTOptions) (*tile.Matrix[float64], *Factors[float64], error) {
	_, a, f, err := Restore(c)
	if err != nil {
		return nil, nil, err
	}
	return a, f, f.walk(s, true, false, c.Step, &Guards{ck, fo}, nil, nil, nil)
}

// SaveCheckpoint saves into dir the checkpoint of the frontier after panel
// step k of op's program over a: a's tiles and, for OpLU, the pivots piv
// of steps ≤ k (nil for the pivot-free ops). The caller guarantees that
// frontier: every step ≤ k has run and no later step has written a tile.
func SaveCheckpoint(dir, op string, a *tile.Matrix[float64], piv []int, k int) error {
	c := &ckpt.Checkpoint{Op: ckptOps[op], Step: k + 1, A: a, Piv: piv[:min((k+1)*a.NB, len(piv))]}
	if _, err := ckpt.Save(dir, c); err != nil {
		return fmt.Errorf("core: checkpoint at step %d: %w", k+1, err)
	}
	return nil
}

// ckptGuard injects the snapshot task (and, at AbortAtStep, the abort
// task) into the DAG after the panel steps opt selects. f is the factor
// being walked; the snapshot carries OpLU's pivots.
type ckptGuard struct {
	noHooks
	f   *Factors[float64]
	opt CkptOptions
}

func (g ckptGuard) afterStep(s sched.Scheduler, k int) {
	a, f, opt := g.f.A, g.f, g.opt
	snapshot, abort := opt.After(k, min(a.MT, a.NT))
	if !snapshot {
		return
	}
	allTiles := func() []sched.Handle {
		hs := make([]sched.Handle, 0, a.MT*a.NT)
		for j := 0; j < a.NT; j++ {
			for i := 0; i < a.MT; i++ {
				hs = append(hs, a.Handle(i, j))
			}
		}
		return hs
	}
	s.Submit(sched.Task{
		Name:  "ckpt",
		Reads: allTiles(),
		FnErr: func() error {
			// The completed steps' pivots are referenced directly: each is
			// written once, by the getrf task of its step, which
			// happens-before this snapshot via its tile writes.
			if err := SaveCheckpoint(opt.Dir, f.op, a, f.Piv, k); err != nil {
				return sched.Permanent(err)
			}
			return nil
		},
	})
	if abort {
		s.Submit(sched.Task{
			Name:   "abort",
			Writes: allTiles(),
			FnErr: func() error {
				return sched.Permanent(fmt.Errorf("%w %d", ErrAborted, k))
			},
		})
	}
}
