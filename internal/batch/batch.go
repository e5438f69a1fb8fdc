// Package batch implements batched dense kernels: thousands of small,
// independent factorizations executed through one scheduler submission
// with chunking, versus the one-call-at-a-time loop they replace. For tiny
// matrices the per-problem overhead (dispatch, scheduling, cache refill)
// dominates arithmetic, so batching with chunk sizes > 1 is where the
// throughput comes from — the keynote's batched-BLAS argument.
package batch

import (
	"fmt"

	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/sched"
)

// chunkHandle names one chunk of a batch for dependence tracking (chunks of
// one batch are independent; the handle exists so recorded graphs show the
// fan-out).
type chunkHandle struct {
	batch *int
	chunk int
}

// Options configures a batched call.
type Options struct {
	// ChunkSize is the number of problems fused into one task. Zero picks
	// a default that amortizes task overhead for tiny problems.
	ChunkSize int
}

// chunk picks the chunk size for count problems of order n, from the
// factorization's n³ element-operation count.
func (o Options) chunk(count, n int) int {
	if o.ChunkSize > 0 {
		return o.ChunkSize
	}
	// Aim for tasks of roughly 64³ flops worth of work, but keep at least
	// ~64 chunks when the batch is large so the DAG still exposes
	// parallelism to a multi-worker pool.
	work := max(n*n*n, 1)
	c := (64 * 64 * 64) / work
	if maxC := (count + 63) / 64; c > maxC {
		c = maxC
	}
	if c < 1 {
		c = 1
	}
	if c > count {
		c = count
	}
	return c
}

// runProblem executes one problem's kernel with panic capture, so a
// panicking kernel (an undersized slice, a bug tripped by one pathological
// input) fails only its own batch entry instead of reaching the scheduler's
// panic path and poisoning the whole chunk — in a batch of 10k, one broken
// problem must not take down the other 9 999.
func runProblem(i int, errs []error, f func() error) {
	defer func() {
		if p := recover(); p != nil {
			errs[i] = fmt.Errorf("batch: problem %d panicked: %v", i, p)
		}
	}()
	errs[i] = f()
}

// Potrf factors each n×n SPD matrix in mats (lower triangle, in place,
// leading dimension n) through the scheduler. The returned slice has one
// entry per matrix; nil means success.
func Potrf(s sched.Scheduler, n int, mats [][]float64, opts Options) []error {
	errs := make([]error, len(mats))
	id := new(int)
	cs := opts.chunk(len(mats), n)
	for lo := 0; lo < len(mats); lo += cs {
		lo := lo
		hi := min(lo+cs, len(mats))
		s.Submit(sched.Task{
			Name:   "potrf-batch",
			Writes: []sched.Handle{chunkHandle{id, lo}},
			FnErr: func() error {
				for i := lo; i < hi; i++ {
					runProblem(i, errs, func() error {
						return lapack.Potf2(blas.Lower, n, mats[i], n)
					})
				}
				return nil
			},
		})
	}
	s.Wait()
	return errs
}

// PotrfSeq is the loop baseline: one matrix at a time on the calling
// goroutine.
func PotrfSeq(n int, mats [][]float64) []error {
	errs := make([]error, len(mats))
	for i := range mats {
		errs[i] = lapack.Potf2(blas.Lower, n, mats[i], n)
	}
	return errs
}

// Getrf factors each n×n matrix in mats with partial pivoting, storing
// pivots in pivs (allocated by the call).
func Getrf(s sched.Scheduler, n int, mats [][]float64, opts Options) (pivs [][]int, errs []error) {
	pivs = make([][]int, len(mats))
	errs = make([]error, len(mats))
	id := new(int)
	cs := opts.chunk(len(mats), n)
	for lo := 0; lo < len(mats); lo += cs {
		lo := lo
		hi := min(lo+cs, len(mats))
		s.Submit(sched.Task{
			Name:   "getrf-batch",
			Writes: []sched.Handle{chunkHandle{id, lo}},
			FnErr: func() error {
				for i := lo; i < hi; i++ {
					runProblem(i, errs, func() error {
						piv := make([]int, n)
						err := lapack.Getf2(n, n, mats[i], n, piv)
						pivs[i] = piv
						return err
					})
				}
				return nil
			},
		})
	}
	s.Wait()
	return pivs, errs
}
