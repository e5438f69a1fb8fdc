package exadla

import (
	"fmt"

	"exadla/internal/ckpt"
	"exadla/internal/core"
)

// WithCheckpoint arms checkpoint/restart on Cholesky, SolveSPD, InvertSPD,
// LU and Solve: after every `every`-th panel step (minimum 1) a consistent
// snapshot of the tile matrix and the DAG frontier — plus, for LU, the
// pivot state of the completed steps — is written atomically into dir.
// A run that dies can be resumed with Context.Resume and, the kernels
// being deterministic, finishes with a factor bitwise identical to an
// uninterrupted run. A checkpoint that cannot be written fails the
// factorization rather than continuing unprotected. SolveSPD, InvertSPD
// and Solve checkpoint their factorization the same way in their one task
// graph: a snapshot task reads every tile and the solve (or inverse) only
// reads or writes tiles, so no barrier separates the two, and the result
// is the unprotected call's bit for bit.
func WithCheckpoint(dir string, every int) Option {
	if dir == "" {
		panic("exadla: WithCheckpoint needs a directory")
	}
	return func(c *Context) {
		c.ckptDir = dir
		c.ckptEvery = every
	}
}

// ckptOptions is nil unless WithCheckpoint armed checkpointing.
func (c *Context) ckptOptions() *core.CkptOptions {
	if c.ckptDir == "" {
		return nil
	}
	return &core.CkptOptions{Dir: c.ckptDir, Every: c.ckptEvery}
}

// Resumed is the result of Context.Resume: the factorization kind found
// in the checkpoint directory and the finished factor, ready to solve
// with — exactly one of Cholesky and LU is non-nil.
type Resumed struct {
	// Op is "cholesky" or "lu".
	Op       string
	Cholesky *CholeskyFactor
	LU       *LUFactor
}

// Resume restarts the factorization recorded in dir from its newest
// valid checkpoint (corrupt or torn files are skipped; older snapshots
// are used instead), runs it to completion, and returns the finished
// factor. The remaining panel steps replay the identical kernels on the
// checkpointed bits, so the factor matches what the interrupted run
// would have produced, bitwise. Checkpointing continues during the
// resumed run, into the same directory, and the Context's
// WithFaultTolerance/WithErasure protection applies to the remaining
// steps, with checksums and parity re-derived from the snapshot.
func (c *Context) Resume(dir string) (*Resumed, error) {
	ck, path, err := ckpt.Latest(dir)
	if err != nil {
		return nil, err
	}
	if ck.Op != ckpt.OpCholesky && ck.Op != ckpt.OpLU {
		return nil, fmt.Errorf("exadla: checkpoint %s holds unknown operation %v", path, ck.Op)
	}
	_, f, err := core.Resume(c.scheduler(), ck, &core.CkptOptions{Dir: dir, Every: c.ckptEvery}, c.ftOptions())
	if err != nil {
		return nil, fmt.Errorf("exadla: resuming %s: %w", path, err)
	}
	if ck.Op == ckpt.OpLU {
		return &Resumed{Op: "lu", LU: &LUFactor{factored{c, f}}}, nil
	}
	return &Resumed{Op: "cholesky", Cholesky: &CholeskyFactor{factored{c, f}}}, nil
}
