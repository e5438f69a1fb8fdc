package core

import (
	"errors"
	"fmt"
	"math"

	"exadla/internal/blas"
	"exadla/internal/ft"
	"exadla/internal/lapack"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// This file implements the ABFT-protected tile factorizations: Cholesky and
// LU variants that carry per-tile column checksums alongside the numerical
// tiles, verify them as the factorization proceeds, and recover from silent
// data corruption by correcting the located entry in place and re-running
// the verification through the scheduler's retry path ("at extreme scale,
// faults are the norm" — the runtime treats corruption like any other
// transient task failure).
//
// Protection model, Cholesky (maintained checksums): every strictly-lower
// tile A[i][j] carries a 2×nb checksum pair (plain and weighted column sums,
// see ft.ColSums) initialised before submission and updated through the same
// BLAS operations as the tile itself — a right-side trsm or gemm applies
// identically to the 2-row pair, which is what keeps the sums independent
// witnesses. Diagonal tiles are witnessed by a snapshot taken inside the
// potrf task (ft.TrilColSums) immediately after the panel factorization.
// Verification tasks after each panel step compare tiles against their
// checksums; a located fault is corrected in place and reported as a
// retryable *ft.CorruptionError, so the scheduler re-runs the verification,
// which passes once the correction holds. Unlocatable faults keep failing
// and surface as a permanent task failure through WaitErr.
//
// Protection model, LU (post-hoc records): incremental pivoting reorders
// rows dynamically, so checksums cannot be carried through tstrf/ssssm the
// way they survive Cholesky's updates. Instead a record task snapshots each
// tile's column sums the moment the factorization finishes writing it
// (row-k tiles after step k's update sweep, sub-diagonal tiles after their
// tstrf); verification re-sums the unchanged data, so any later corruption
// of the finalized factor is detected and corrected. Corruption of a tile
// while it is still being updated is outside this model — the weaker
// guarantee is the price of pivoting.

// FTOptions configures the resilient factorizations.
type FTOptions struct {
	// VerifyEvery verifies checksummed tiles after every VerifyEvery-th
	// panel step; 0 means 1 (every step). Sparser verification trades
	// detection latency for overhead: a fault that propagates through
	// unverified updates may become unlocatable and fail the run instead
	// of being corrected.
	VerifyEvery int
	// NoFinalVerify skips the whole-factor verification sweep that
	// otherwise runs after the last step.
	NoFinalVerify bool
	// InjectHook, if non-nil, is called once per panel step between the
	// step's checksum snapshot and its verification, with write access to
	// the step's panel tiles (Cholesky: column k at and below the
	// diagonal; LU: the tiles finalized by step k). Tests and the
	// exabench fault driver use it to corrupt data mid-factorization.
	InjectHook func(step int, a *tile.Matrix[float64])
	// Stats, if non-nil, accumulates detection/correction counts.
	Stats *ft.Stats
	// Erasure arms hard-fault protection: one XOR parity tile per tile row
	// (ft.RowErasure). Tiles are committed to their row's parity group as
	// the factorization finalizes them, and a wholly lost tile — faults
	// across multiple checksum columns, the signature of wholesale loss
	// rather than a bit flip — is rebuilt bit-exactly by XOR subtraction
	// instead of failing the run.
	Erasure bool
	// LoseTiles schedules hard-fault injections (requires Erasure): at the
	// given panel step each listed tile is wiped to zero, modelling the
	// loss of the worker or process that held it. The tile must have been
	// finalized (committed to its parity group) by an earlier point of the
	// factorization.
	LoseTiles []TileLoss
}

// TileLoss names one injected hard fault: tile (I, J) is lost at panel
// step Step. With Silent false the loss is fail-stop — the runtime knows
// which tile died and a reconstruction task rebuilds it immediately,
// before any later reader consumes it. With Silent true nothing is
// scheduled: the loss must be caught by checksum verification (the final
// sweep detects the multi-column fault pattern and reconstructs), which is
// only sound for tiles with no remaining readers before that verification.
type TileLoss struct {
	Step, I, J int
	Silent     bool
}

func (o FTOptions) verifyStep(k int) bool {
	ve := o.VerifyEvery
	if ve < 1 {
		ve = 1
	}
	return k%ve == 0
}

// validateLosses rejects loss schedules the erasure layer cannot honour.
func (o FTOptions) validateLosses(a *tile.Matrix[float64]) error {
	if len(o.LoseTiles) == 0 {
		return nil
	}
	if !o.Erasure {
		return errors.New("core: FTOptions.LoseTiles requires FTOptions.Erasure (nothing could reconstruct the lost tiles)")
	}
	for _, l := range o.LoseTiles {
		if l.I < 0 || l.I >= a.MT || l.J < 0 || l.J >= a.NT {
			return fmt.Errorf("core: TileLoss (%d,%d) outside the %d×%d tile grid", l.I, l.J, a.MT, a.NT)
		}
	}
	return nil
}

// schedWait drains the scheduler and returns its aggregated task failures
// when it supports the error-returning wait (sched.Runtime and
// sched.Recorder both do); a plain Scheduler just waits.
func schedWait(s sched.Scheduler) error {
	if ew, ok := s.(sched.ErrorWaiter); ok {
		return ew.WaitErr()
	}
	s.Wait()
	return nil
}

// finishErr is the common driver epilogue: drain the scheduler, then merge
// the algorithm's own error state with the runtime's aggregated task
// failures. A sole error is returned unwrapped, preserving the historical
// concrete error types (e.g. *lapack.NotPositiveDefiniteError) that callers
// type-assert on.
func finishErr(es *errState, s sched.Scheduler) error {
	werr := schedWait(s)
	err := es.get()
	switch {
	case err == nil:
		return werr
	case werr == nil:
		return err
	}
	return errors.Join(err, werr)
}

// resilientState owns the checksum storage of one resilient factorization.
type resilientState struct {
	a *tile.Matrix[float64]
	// sums[i+j*MT] is the 2×TileCols(j) checksum pair of tile (i, j);
	// entries are allocated only for protected tiles.
	sums [][]float64
	// diag[k] is the post-potrf lower-triangle witness of tile (k, k)
	// (Cholesky only), written inside the potrf task.
	diag [][]float64
	// ers is the per-tile-row parity store, non-nil when FTOptions.Erasure
	// is set.
	ers *ft.RowErasure
	tol float64
	opt FTOptions
}

// sumHandle is the scheduler identity of one tile's checksum pair, so tasks
// that update or read checksums declare them like any other datum.
type sumHandle struct {
	st   *resilientState
	i, j int
}

func (st *resilientState) handle(i, j int) sched.Handle { return sumHandle{st, i, j} }

func (st *resilientState) sum(i, j int) []float64 { return st.sums[i+j*st.a.MT] }

// maxAbsLower returns the max-abs norm over the referenced (lower) region
// of a symmetric tiled matrix.
func maxAbsLower(a *tile.Matrix[float64]) float64 {
	var norm float64
	for j := 0; j < a.NT; j++ {
		for i := j; i < a.MT; i++ {
			t := a.Tile(i, j)
			ld := a.TileRows(i)
			for c := 0; c < a.TileCols(j); c++ {
				lo := 0
				if i == j {
					lo = c
				}
				for r := lo; r < a.TileRows(i); r++ {
					if av := math.Abs(t[r+c*ld]); av > norm {
						norm = av
					}
				}
			}
		}
	}
	return norm
}

func maxAbs(a *tile.Matrix[float64]) float64 {
	var norm float64
	for j := 0; j < a.NT; j++ {
		for i := 0; i < a.MT; i++ {
			for _, v := range a.Tile(i, j) {
				if av := math.Abs(v); av > norm {
					norm = av
				}
			}
		}
	}
	return norm
}

// ResilientCholesky computes the tile Cholesky factorization like Cholesky,
// with ABFT checksum protection per FTOptions. Detected corruption is
// corrected in place and re-verified through the scheduler's retry path, so
// the scheduler should have a retry policy installed (sched.WithRetry);
// without one the first detection fails the factorization even when the
// correction succeeded.
func ResilientCholesky(s sched.Scheduler, a *tile.Matrix[float64], opt FTOptions) error {
	if a.M != a.N {
		panic("core: Cholesky needs a square matrix")
	}
	if err := opt.validateLosses(a); err != nil {
		return err
	}
	st := &resilientState{
		a:    a,
		sums: make([][]float64, a.MT*a.NT),
		diag: make([][]float64, a.NT),
		opt:  opt,
		tol:  ft.DetectTol(maxAbsLower(a), a.N),
	}
	if opt.Erasure {
		st.ers = ft.NewRowErasure(a, opt.Stats)
	}
	// Initial checksums of every strictly-lower tile; they are maintained
	// through each update the tile receives. Diagonal witnesses are filled
	// by the potrf tasks.
	for j := 0; j < a.NT; j++ {
		st.diag[j] = make([]float64, 2*a.TileCols(j))
		for i := j + 1; i < a.MT; i++ {
			sums := make([]float64, 2*a.TileCols(j))
			ft.ColSums(a.TileRows(i), a.TileCols(j), a.Tile(i, j), a.TileRows(i), sums)
			st.sums[i+j*a.MT] = sums
		}
	}
	submitResilientCholesky(s, st)
	return schedWait(s)
}

func submitResilientCholesky(s sched.Scheduler, st *resilientState) {
	a := st.a
	nt := a.NT
	for k := 0; k < nt; k++ {
		k := k
		s.Submit(sched.Task{
			Name:     "potrf",
			Priority: priority(k, nt, bandPanel),
			Writes:   []sched.Handle{a.Handle(k, k)},
			FnErr: timedErr(panelNs, func() error {
				n := a.TileCols(k)
				t := a.Tile(k, k)
				ld := a.TileRows(k)
				if err := lapack.Potrf(blas.Lower, n, t, ld); err != nil {
					perr := err.(*lapack.NotPositiveDefiniteError)
					return sched.Permanent(&lapack.NotPositiveDefiniteError{Index: k*a.NB + perr.Index})
				}
				// Witness the freshly factored diagonal tile before anyone
				// else (including an injection hook) can touch it.
				ft.TrilColSums(n, t, ld, st.diag[k])
				return nil
			}),
		})
		if st.opt.InjectHook != nil {
			writes := []sched.Handle{a.Handle(k, k)}
			for i := k + 1; i < a.MT; i++ {
				writes = append(writes, a.Handle(i, k))
			}
			s.Submit(sched.Task{
				Name:     "inject",
				Priority: priority(k, nt, bandPanel),
				Writes:   writes,
				Fn:       func() { st.opt.InjectHook(k, a) },
			})
		}
		if st.opt.verifyStep(k) {
			s.Submit(sched.Task{
				Name:     "verify",
				Priority: priority(k, nt, bandPanel),
				Writes:   []sched.Handle{a.Handle(k, k)},
				FnErr: func() error {
					return st.verifyTile(k, k)
				},
			})
		}
		// The diagonal tile is final after its verify: commit it to the row
		// parity group so a later loss is reconstructible.
		st.submitCommit(s, k, k, priority(k, nt, bandPanel))
		for i := k + 1; i < a.MT; i++ {
			i := i
			s.Submit(sched.Task{
				Name:     "trsm",
				Priority: priority(k, nt, bandSolve),
				Reads:    []sched.Handle{a.Handle(k, k)},
				Writes:   []sched.Handle{a.Handle(i, k), st.handle(i, k)},
				Fn: timed(solveNs, func() {
					// A[i][k] ← A[i][k]·L[k][k]⁻ᵀ, and the 2×nb checksum
					// pair through the identical right-side solve.
					blas.Trsm(blas.Right, blas.Lower, blas.Trans, blas.NonUnit,
						a.TileRows(i), a.TileCols(k), 1,
						a.Tile(k, k), a.TileRows(k), a.Tile(i, k), a.TileRows(i))
					blas.Trsm(blas.Right, blas.Lower, blas.Trans, blas.NonUnit,
						2, a.TileCols(k), 1,
						a.Tile(k, k), a.TileRows(k), st.sum(i, k), 2)
				}),
			})
			if st.opt.verifyStep(k) {
				s.Submit(sched.Task{
					Name:     "verify",
					Priority: priority(k, nt, bandSolve),
					Reads:    []sched.Handle{st.handle(i, k)},
					Writes:   []sched.Handle{a.Handle(i, k)},
					FnErr: func() error {
						return st.verifyTile(i, k)
					},
				})
			}
			// Post-trsm, tile (i, k) is a final L tile: commit it before the
			// step's gemms read it, so even a loss within this step is
			// recoverable.
			st.submitCommit(s, i, k, priority(k, nt, bandSolve))
		}
		// Hard-fault injections scheduled for this step run after the panel
		// and solves (their targets committed) and before the trailing
		// update reads anything.
		st.submitLosses(s, k, nt)
		for j := k + 1; j < nt; j++ {
			j := j
			s.Submit(sched.Task{
				Name:     "syrk",
				Priority: priority(j, nt, bandUpdate),
				Reads:    []sched.Handle{a.Handle(j, k)},
				Writes:   []sched.Handle{a.Handle(j, j)},
				Fn: timed(updateNs, func() {
					blas.Syrk(blas.Lower, blas.NoTrans, a.TileCols(j), a.TileCols(k),
						-1, a.Tile(j, k), a.TileRows(j), 1, a.Tile(j, j), a.TileRows(j))
				}),
			})
			for i := j + 1; i < a.MT; i++ {
				i := i
				s.Submit(sched.Task{
					Name:     "gemm",
					Priority: priority(j, nt, bandUpdate),
					Reads:    []sched.Handle{a.Handle(i, k), a.Handle(j, k), st.handle(i, k)},
					Writes:   []sched.Handle{a.Handle(i, j), st.handle(i, j)},
					Fn: timed(updateNs, func() {
						// A[i][j] -= A[i][k]·A[j][k]ᵀ; the checksum pair of
						// (i, j) follows via E·(A[i][k]·A[j][k]ᵀ) =
						// (E·A[i][k])·A[j][k]ᵀ = sums[i][k]·A[j][k]ᵀ.
						blas.Gemm(blas.NoTrans, blas.Trans,
							a.TileRows(i), a.TileCols(j), a.TileCols(k),
							-1, a.Tile(i, k), a.TileRows(i),
							a.Tile(j, k), a.TileRows(j),
							1, a.Tile(i, j), a.TileRows(i))
						blas.Gemm(blas.NoTrans, blas.Trans,
							2, a.TileCols(j), a.TileCols(k),
							-1, st.sum(i, k), 2,
							a.Tile(j, k), a.TileRows(j),
							1, st.sum(i, j), 2)
					}),
				})
			}
		}
	}
	if !st.opt.NoFinalVerify {
		writes := make([]sched.Handle, 0, nt*(nt+1)/2)
		for j := 0; j < nt; j++ {
			for i := j; i < a.MT; i++ {
				writes = append(writes, a.Handle(i, j))
			}
		}
		s.Submit(sched.Task{
			Name:   "verify",
			Writes: writes,
			FnErr: func() error {
				return st.sweep()
			},
		})
	}
}

// submitCommit submits the task that folds finalized tile (i, j) into its
// row parity group. Reading the tile places it after the tile's final
// writer (and its verify); writing the row's parity handle serializes all
// parity operations in the row, which is the happens-before edge every
// later reconstruction relies on. No-op without erasure.
func (st *resilientState) submitCommit(s sched.Scheduler, i, j, prio int) {
	if st.ers == nil {
		return
	}
	s.Submit(sched.Task{
		Name:     "commit",
		Priority: prio,
		Reads:    []sched.Handle{st.a.Handle(i, j)},
		Writes:   []sched.Handle{st.ers.RowHandle(i)},
		Fn:       func() { st.ers.Commit(i, j) },
	})
}

// submitLosses submits this step's scheduled hard-fault injections: each
// target tile is wiped (the loss), and — unless the loss is Silent — a
// reconstruction task immediately rebuilds it from the row parity, the
// fail-stop recovery a real runtime performs when it knows which worker
// died. Silent losses are left for checksum verification to catch.
func (st *resilientState) submitLosses(s sched.Scheduler, step, nt int) {
	a := st.a
	for _, l := range st.opt.LoseTiles {
		if l.Step != step {
			continue
		}
		l := l
		s.Submit(sched.Task{
			Name:     "lose",
			Priority: priority(step, nt, bandUpdate),
			Writes:   []sched.Handle{a.Handle(l.I, l.J)},
			Fn: func() {
				t := a.Tile(l.I, l.J)
				for z := range t {
					t[z] = 0
				}
				if st.opt.Stats != nil {
					st.opt.Stats.Injected.Add(1)
				}
			},
		})
		if l.Silent {
			continue
		}
		s.Submit(sched.Task{
			Name:     "reconstruct",
			Priority: priority(step, nt, bandUpdate),
			Writes:   []sched.Handle{a.Handle(l.I, l.J), st.ers.RowHandle(l.I)},
			FnErr: func() error {
				return st.ers.ReconstructTile(l.I, l.J)
			},
		})
	}
}

// tileLost reports whether a fault pattern looks like wholesale tile loss
// rather than an isolated flip: discrepancies across more than one checksum
// column, or an unlocatable fault, which per-entry correction cannot fix.
func tileLost(faults []ft.Fault) bool {
	if len(faults) > 1 {
		return true
	}
	for _, f := range faults {
		if f.Row < 0 {
			return true
		}
	}
	return false
}

// correct repairs located faults of tile (i, j) in place like
// ft.CorrectColSums, additionally amending the row parity when the tile is
// already committed, so later reconstructions in the row stay exact.
func (st *resilientState) correct(i, j int, faults []ft.Fault) int {
	a := st.a
	t := a.Tile(i, j)
	ld := a.TileRows(i)
	c := 0
	for _, f := range faults {
		if f.Row < 0 {
			continue
		}
		oldV := t[f.Row+f.Col*ld]
		newV := oldV - f.Delta
		t[f.Row+f.Col*ld] = newV
		if st.ers != nil {
			st.ers.Amend(i, j, f.Row, f.Col, oldV, newV)
		}
		c++
	}
	return c
}

// verifyTile checks one tile against its checksums. A fault pattern that
// looks like wholesale loss of a parity-committed tile is repaired by
// erasure reconstruction; otherwise located faults are corrected in place.
// Either repair is reported as a retryable corruption error (the retry
// re-runs this verification, which passes once the repair holds).
func (st *resilientState) verifyTile(i, j int) error {
	a := st.a
	var faults []ft.Fault
	if i == j {
		faults = ft.VerifyTrilColSums(a.TileCols(j), a.Tile(j, j), a.TileRows(j), st.diag[j], st.tol)
	} else {
		faults = ft.VerifyColSums(a.TileRows(i), a.TileCols(j), a.Tile(i, j), a.TileRows(i), st.sums[i+j*a.MT], st.tol)
	}
	return st.repair(i, j, faults)
}

// repair routes a non-empty fault list to erasure reconstruction or
// per-entry correction and builds the retryable corruption report.
func (st *resilientState) repair(i, j int, faults []ft.Fault) error {
	if len(faults) == 0 {
		return nil
	}
	if st.ers != nil && tileLost(faults) && st.ers.Committed(i, j) {
		if err := st.ers.ReconstructTile(i, j); err == nil {
			if st.opt.Stats != nil {
				st.opt.Stats.Detected.Add(1)
			}
			return &ft.CorruptionError{TileRow: i, TileCol: j, Faults: faults, Reconstructed: true}
		}
	}
	corrected := st.correct(i, j, faults)
	st.opt.Stats.Note(faults, corrected)
	return &ft.CorruptionError{TileRow: i, TileCol: j, Faults: faults, Corrected: corrected}
}

// sweep verifies every protected tile of the finished factor, aggregating
// faults across tiles into one retryable corruption error.
func (st *resilientState) sweep() error {
	a := st.a
	var all []ft.Fault
	corrected, reconstructed := 0, false
	for j := 0; j < a.NT; j++ {
		for i := j; i < a.MT; i++ {
			err := st.verifyTile(i, j)
			if err == nil {
				continue
			}
			ce := err.(*ft.CorruptionError)
			all = append(all, ce.Faults...)
			corrected += ce.Corrected
			reconstructed = reconstructed || ce.Reconstructed
		}
	}
	if len(all) == 0 {
		return nil
	}
	return &ft.CorruptionError{TileRow: -1, TileCol: -1, Faults: all, Corrected: corrected, Reconstructed: reconstructed}
}

// ResilientLU computes the tile LU factorization like LU, with post-hoc
// checksum records per FTOptions (see the protection-model comment above).
// Like ResilientCholesky it wants a scheduler retry policy installed.
func ResilientLU(s sched.Scheduler, a *tile.Matrix[float64], opt FTOptions) (*LUFactors[float64], error) {
	if err := opt.validateLosses(a); err != nil {
		return nil, err
	}
	f := newLUFactors(a)
	es := &errState{}
	// The tolerance reads the input matrix, so it must be computed before
	// the factorization DAG is submitted — tasks start mutating tiles the
	// moment Submit links them.
	st := &resilientState{
		a:    a,
		sums: make([][]float64, a.MT*a.NT),
		opt:  opt,
		tol:  ft.DetectTol(maxAbs(a), max(a.M, a.N)),
	}
	if opt.Erasure {
		st.ers = ft.NewRowErasure(a, opt.Stats)
	}
	submitProgram(s, OpLU, a, f, es, false, 0, nil)
	submitLURecords(s, st)
	return f, finishErr(es, s)
}

// submitLURecords submits, per factorization step, the record tasks that
// snapshot each tile's checksums as it finalizes, the optional injection
// hook, and the verification tasks. Dependences are derived per handle, so
// although these tasks are submitted after the whole factorization DAG,
// each record runs as soon as the factorization finishes writing its tile —
// mid-factorization in dataflow time.
func submitLURecords(s sched.Scheduler, st *resilientState) {
	a := st.a
	kt := min(a.MT, a.NT)
	stepTiles := func(k int) [][2]int {
		var tiles [][2]int
		for j := k; j < a.NT; j++ {
			tiles = append(tiles, [2]int{k, j})
		}
		for i := k + 1; i < a.MT; i++ {
			tiles = append(tiles, [2]int{i, k})
		}
		return tiles
	}
	for k := 0; k < kt; k++ {
		k := k
		tiles := stepTiles(k)
		for _, t := range tiles {
			i, j := t[0], t[1]
			sums := make([]float64, 2*a.TileCols(j))
			st.sums[i+j*a.MT] = sums
			s.Submit(sched.Task{
				Name:     "record",
				Priority: priority(k, kt, bandUpdate),
				Writes:   []sched.Handle{a.Handle(i, j), st.handle(i, j)},
				Fn: func() {
					ft.ColSums(a.TileRows(i), a.TileCols(j), a.Tile(i, j), a.TileRows(i), sums)
				},
			})
		}
		if st.opt.InjectHook != nil {
			writes := make([]sched.Handle, 0, len(tiles))
			for _, t := range tiles {
				writes = append(writes, a.Handle(t[0], t[1]))
			}
			s.Submit(sched.Task{
				Name:     "inject",
				Priority: priority(k, kt, bandUpdate),
				Writes:   writes,
				Fn:       func() { st.opt.InjectHook(k, a) },
			})
		}
		if st.opt.verifyStep(k) {
			for _, t := range tiles {
				i, j := t[0], t[1]
				s.Submit(sched.Task{
					Name:     "verify",
					Priority: priority(k, kt, bandUpdate),
					Reads:    []sched.Handle{st.handle(i, j)},
					Writes:   []sched.Handle{a.Handle(i, j)},
					FnErr: func() error {
						return st.verifyLUTile(i, j)
					},
				})
			}
		}
		// Recorded tiles are final: commit them to their row parity groups,
		// then run this step's scheduled hard-fault injections.
		for _, t := range tiles {
			st.submitCommit(s, t[0], t[1], priority(k, kt, bandUpdate))
		}
		st.submitLosses(s, k, kt)
	}
	if !st.opt.NoFinalVerify {
		writes := make([]sched.Handle, 0, a.MT*a.NT)
		for j := 0; j < a.NT; j++ {
			for i := 0; i < a.MT; i++ {
				if st.sums[i+j*a.MT] != nil {
					writes = append(writes, a.Handle(i, j))
				}
			}
		}
		s.Submit(sched.Task{
			Name:   "verify",
			Writes: writes,
			FnErr: func() error {
				return st.luSweep()
			},
		})
	}
}

// verifyLUTile is verifyTile for post-hoc records: all LU tiles carry full
// (not lower-triangle) checksums, including the diagonal.
func (st *resilientState) verifyLUTile(i, j int) error {
	a := st.a
	faults := ft.VerifyColSums(a.TileRows(i), a.TileCols(j), a.Tile(i, j), a.TileRows(i), st.sums[i+j*a.MT], st.tol)
	return st.repair(i, j, faults)
}

func (st *resilientState) luSweep() error {
	a := st.a
	var all []ft.Fault
	corrected, reconstructed := 0, false
	for j := 0; j < a.NT; j++ {
		for i := 0; i < a.MT; i++ {
			if st.sums[i+j*a.MT] == nil {
				continue
			}
			err := st.verifyLUTile(i, j)
			if err == nil {
				continue
			}
			ce := err.(*ft.CorruptionError)
			all = append(all, ce.Faults...)
			corrected += ce.Corrected
			reconstructed = reconstructed || ce.Reconstructed
		}
	}
	if len(all) == 0 {
		return nil
	}
	return &ft.CorruptionError{TileRow: -1, TileCol: -1, Faults: all, Corrected: corrected, Reconstructed: reconstructed}
}
