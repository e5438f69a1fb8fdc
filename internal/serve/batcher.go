package serve

import (
	"fmt"

	"exadla/internal/batch"
	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/sched"
)

// runBatcher is the small-problem fast path. Tiny solves pay more in
// scheduler submission and tile conversion than in arithmetic, so instead
// of one DAG per job the batcher takes everything queued, up to BatchMax,
// and pushes each (kind, n) group through the batched panel kernels as a
// handful of fused chunk tasks on one runtime. It never waits for a batch
// to fill: a lone job flushes at once, and in a flood the jobs that arrive
// during one flush make up the next.
func (s *Server) runBatcher() {
	defer s.wg.Done()
	rt := sched.New(s.cfg.Workers, sched.WithMetrics(s.reg))
	defer rt.Shutdown()
	for {
		jobs := s.take(s.qSmall, &s.rrSmall, s.cfg.BatchMax)
		if jobs == nil {
			return
		}
		s.flushBatch(rt, jobs)
	}
}

type batchKey struct {
	lu bool
	n  int
}

func (s *Server) flushBatch(rt *sched.Runtime, jobs []*job) {
	s.met.batchFlushes.Inc()
	s.met.batchSize.Observe(int64(len(jobs)))
	groups := make(map[batchKey][]*job)
	for _, j := range jobs {
		s.markRunning(j)
		j.batched.Store(true)
		k := batchKey{lu: !j.spec.Op.spd(), n: j.spec.N}
		groups[k] = append(groups[k], j)
	}
	for k, group := range groups {
		s.runBatchGroup(rt, k, group)
	}
}

// runBatchGroup factors every operator in the group through one batched
// submission, then back-substitutes each job's right-hand side in place.
// The batched kernels already isolate per-problem panics; the triangular
// solves get the same treatment here, so one malformed problem fails alone.
func (s *Server) runBatchGroup(rt *sched.Runtime, k batchKey, group []*job) {
	n := k.n
	mats := make([][]float64, len(group))
	for i, j := range group {
		mats[i] = j.spec.A
	}
	var pivs [][]int
	var errs []error
	if k.lu {
		pivs, errs = batch.Getrf(rt, n, mats, batch.Options{})
	} else {
		errs = batch.Potrf(rt, n, mats, batch.Options{})
	}
	for i, j := range group {
		if errs[i] != nil {
			s.finish(j, errs[i])
			continue
		}
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("serve: batched solve panicked: %v", p)
				}
			}()
			if k.lu {
				lapack.Getrs(blas.NoTrans, n, j.spec.NRHS, mats[i], n, pivs[i], j.spec.B, n)
			} else {
				lapack.Potrs(blas.Lower, n, j.spec.NRHS, mats[i], n, j.spec.B, n)
			}
			return nil
		}()
		if err == nil {
			j.result.Store(j.spec.B)
			s.met.batchJobs.Inc()
		}
		j.tasksDone.Store(1) // the fused submission, from this job's view
		s.finish(j, err)
	}
}
