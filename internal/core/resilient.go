package core

import (
	"errors"
	"fmt"
	"math"

	"exadla/internal/blas"
	"exadla/internal/ft"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// This file implements ABFT protection and erasure parity as guards on the
// walk of a tile program (see guard in program.go): the same kernels in the
// same DAG as the plain factorizations, plus tasks that carry per-tile
// column checksums alongside the numerical tiles, verify them as the
// factorization proceeds, and recover from silent data corruption by
// correcting the located entry in place and re-running the verification
// through the scheduler's retry path ("at extreme scale, faults are the
// norm" — the runtime treats corruption like any other transient task
// failure).
//
// Maintained checksums, Cholesky (sumsGuard): every strictly-lower tile
// A[i][j] carries a 2×nb checksum pair (plain and weighted column sums, see
// ft.ColSums) initialised before submission and updated through the same
// BLAS operations as the tile itself — a right-side trsm or gemm applies
// identically to the 2-row pair, which is what keeps the sums independent
// witnesses. Diagonal tiles are witnessed by a snapshot taken inside the
// potrf task (ft.TrilColSums) immediately after the panel factorization.
// A verification task follows each potrf and trsm; a located fault is
// corrected in place and reported as a retryable *ft.CorruptionError, so
// the scheduler re-runs the verification, which passes once the correction
// holds. Unlocatable faults keep failing and surface as a permanent task
// failure through WaitErr.
//
// Post-hoc records, LU with and without pivoting (recordsGuard): partial
// pivoting swaps rows across a whole tile column, so a tile's column sums
// cannot be carried through a step the way they survive Cholesky's
// updates. Instead, after each panel step a record task snapshots the
// column sums of every tile the step finalized — the tiles whose last
// writer in the program belongs to that step; interchanges never reach
// left of their panel, so there is exactly one — and verification re-sums
// the unchanged data, so any later corruption of the finalized factor is
// detected and corrected. Corruption of a tile while it is still being
// updated is outside this model — the weaker guarantee is the price of
// pivoting.
//
// Every protected tile is verified once more by a whole-factor sweep after
// the program, which writes them all, so a solve in the same walk reads
// the verified factor. A resumed run re-derives the checksums, diagonal
// witnesses and parity of the tiles its snapshot already holds final from
// the snapshot.

// FTOptions configures ABFT protection of a factorization (see Protect).
type FTOptions struct {
	// InjectHook, if non-nil, is called once per panel step between the
	// step's checksum snapshot and its verification, with write access to
	// the step's panel tiles (Cholesky: column k at and below the
	// diagonal; both LUs: the tiles finalized by step k). Tests, exabench's
	// ABFT driver (E6 and -exp faults) and examples/faulttolerance use it to
	// corrupt data mid-factorization.
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
// A checkpoint snapshot is such a reader, so a walk refuses a silent loss
// that one of its checkpoints would snapshot.
type TileLoss struct {
	Step, I, J int
	Silent     bool
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

// Guards are the protections a walk layers onto a float64 Cholesky or LU
// factorization: checkpoints per Ckpt, and ABFT checksums (with erasure
// parity if FT.Erasure) per FT. Either may be nil, and a nil Guards arms
// none. They cover the factor's tiles, not the sweeps after it, which wait
// on every verify, snapshot and abort task through their tile accesses.
type Guards struct {
	Ckpt *CkptOptions
	FT   *FTOptions
}

// Protect factors a in place with op's tile program — OpCholesky (lower
// triangle referenced), OpLUNoPiv or OpLU — under the protections given,
// either of which may be nil (see Guards). The QR ops are refused: no
// guard covers their reflector factors yet.
//
// Detected corruption is corrected in place and re-verified through the
// scheduler's retry path, so with fo set the scheduler should have a retry
// policy installed (sched.WithRetry); without one the first detection fails
// the factorization even when the correction succeeded. A checkpoint write
// failure fails the factorization (a checkpoint that silently does not
// exist is worse than a loud abort).
func Protect(s sched.Scheduler, op string, a *tile.Matrix[float64], ck *CkptOptions, fo *FTOptions) (*Factors[float64], error) {
	f := newFactors(op, a)
	return f, f.walk(s, true, false, 0, &Guards{ck, fo}, nil, nil, nil)
}

// arm returns the guards g layers onto the walk of f's program from panel
// step from, in hook order: ABFT, then erasure, then checkpoints. es is the
// walk's error state. The checksums and the detection tolerance are taken
// from the input before the walk, so a deferred A is filled first.
func (f *Factors[F]) arm(g *Guards, from int, es *errState) ([]guard, error) {
	if g == nil {
		return nil, nil
	}
	if f.op == OpQR || f.op == OpQRTree {
		return nil, fmt.Errorf("core: no protection covers %s's reflector factors", f.op)
	}
	f64 := any(f).(*Factors[float64])
	if g.FT != nil && g.Ckpt != nil {
		// A silent loss is caught only by the final sweep, so no snapshot
		// may read the lost tile first; one at a step the run does not walk
		// never fires.
		kt := min(f64.A.MT, f64.A.NT)
		for _, l := range g.FT.LoseTiles {
			for k := l.Step; l.Silent && l.Step >= from && k < kt; k++ {
				if snapshot, _ := g.Ckpt.After(k, kt); snapshot {
					return nil, fmt.Errorf("core: silent loss of tile (%d,%d) at step %d would be checkpointed after step %d, before the verification sweep can rebuild it", l.I, l.J, l.Step, k)
				}
			}
		}
	}
	var guards []guard
	if g.FT != nil {
		f64.A.Fill()
		st, err := newResilientState(f.op, f64.A, from, es, *g.FT)
		if err != nil {
			return nil, err
		}
		if st.maintained() {
			guards = append(guards, sumsGuard{resilientState: st})
		} else {
			guards = append(guards, recordsGuard{resilientState: st})
		}
		if st.ers != nil {
			guards = append(guards, erasureGuard{resilientState: st})
		}
	}
	if g.Ckpt != nil {
		guards = append(guards, ckptGuard{f: f64, opt: *g.Ckpt})
	}
	return guards, nil
}

// resilientState owns the checksum and parity storage of one protected
// factorization, shared by its ABFT and erasure guards.
type resilientState struct {
	a  *tile.Matrix[float64]
	es *errState
	kt int
	// last[i+j*MT] is the program step that writes tile (i, j) last — the
	// step that finalizes it — with an empty Kind for tiles the program
	// never writes. finalAt[k] lists the tiles finalized in panel step k in
	// row-major order, and committed[k] counts those submitted for parity
	// commit so far.
	last      []Step
	finalAt   [][][2]int
	committed []int
	// sums[i+j*MT] is the 2×TileCols(j) checksum pair of tile (i, j);
	// entries are allocated only for protected tiles.
	sums [][]float64
	// diag[k] is the post-potrf lower-triangle witness of tile (k, k),
	// written inside the potrf task; nil unless the checksums are
	// maintained (Cholesky).
	diag [][]float64
	// ers is the per-tile-row parity store, non-nil when FTOptions.Erasure
	// is set.
	ers *ft.RowErasure
	tol float64
	opt FTOptions
}

// newResilientState sets up the protection of op's program over a, resumed
// at panel step from: each tile's finalizing step is read off the program,
// checksums that are maintained (or whose tile the snapshot holds final)
// are taken from the current data, and tiles final before from are
// committed to their parity groups.
func newResilientState(op string, a *tile.Matrix[float64], from int, es *errState, opt FTOptions) (*resilientState, error) {
	if err := opt.validateLosses(a); err != nil {
		return nil, err
	}
	kt := min(a.MT, a.NT)
	st := &resilientState{
		a: a, es: es, kt: kt, opt: opt,
		last:      make([]Step, a.MT*a.NT),
		finalAt:   make([][][2]int, kt),
		committed: make([]int, kt),
		sums:      make([][]float64, a.MT*a.NT),
	}
	prog := Program(op, a.MT, a.NT, 0)
	for c, id := range LastWriters(prog) {
		st.last[c[0]+c[1]*a.MT] = prog[id]
	}
	// The tolerance reads the input matrix, so it must be computed before
	// the factorization DAG is submitted — tasks start mutating tiles the
	// moment Submit links them.
	if op == OpCholesky {
		st.tol = ft.DetectTol(maxAbs(a, true), a.N)
		st.diag = make([][]float64, a.NT)
	} else {
		st.tol = ft.DetectTol(maxAbs(a, false), max(a.M, a.N))
	}
	if opt.Erasure {
		st.ers = ft.NewRowErasure(a, opt.Stats)
	}
	for i := 0; i < a.MT; i++ {
		for j := 0; j < a.NT; j++ {
			l := st.last[i+j*a.MT]
			if l.Kind == "" {
				continue
			}
			st.finalAt[l.K] = append(st.finalAt[l.K], [2]int{i, j})
			done := l.K < from
			sums := make([]float64, 2*a.TileCols(j))
			switch {
			case st.maintained() && i == j:
				// Diagonal witnesses are otherwise written by the potrf tasks.
				st.diag[j] = sums
				if done {
					ft.TrilColSums(a.TileCols(j), a.Tile(j, j), a.TileRows(j), sums)
				}
			case st.maintained() || done:
				// Maintained checksums start from the current tile and follow
				// every update it receives; a record of a tile the snapshot
				// holds final is taken now rather than by a record task.
				ft.ColSums(a.TileRows(i), a.TileCols(j), a.Tile(i, j), a.TileRows(i), sums)
				st.sums[i+j*a.MT] = sums
			default:
				st.sums[i+j*a.MT] = sums
			}
			if done && st.ers != nil {
				st.ers.Commit(i, j)
			}
		}
	}
	return st, nil
}

// maintained reports whether the checksums ride through the kernels
// (Cholesky) rather than being recorded after each step.
func (st *resilientState) maintained() bool { return st.diag != nil }

// sumHandle is the scheduler identity of one tile's checksum pair, so tasks
// that update or read checksums declare them like any other datum.
type sumHandle struct {
	st   *resilientState
	i, j int
}

func (st *resilientState) handle(i, j int) sched.Handle { return sumHandle{st, i, j} }

func (st *resilientState) sum(i, j int) []float64 { return st.sums[i+j*st.a.MT] }

// unlessFailed makes a guard task body stand down once a kernel has
// failed: the run is returning that error, and the half-finished factor
// holds no corruption worth repairing.
func (st *resilientState) unlessFailed(fn func() error) func() error {
	return func() error {
		if st.es.failed() {
			return nil
		}
		return fn()
	}
}

// maxAbs returns the max-abs norm of a, over its lower triangle only with
// lower set: the referenced region of a symmetric matrix.
func maxAbs(a *tile.Matrix[float64], lower bool) float64 {
	var norm float64
	for j := 0; j < a.NT; j++ {
		for i := 0; i < a.MT; i++ {
			t, ld := a.Tile(i, j), a.TileRows(i)
			for c := 0; c < a.TileCols(j); c++ {
				for r := 0; r < ld; r++ {
					if av := math.Abs(t[r+c*ld]); av > norm && (!lower || i*a.NB+r >= j*a.NB+c) {
						norm = av
					}
				}
			}
		}
	}
	return norm
}

// sumsGuard carries Cholesky's checksums through the kernels: trsm and gemm
// update the checksum pairs of the tiles they write, potrf witnesses its
// diagonal tile, and a verification follows each potrf and trsm.
type sumsGuard struct {
	noHooks
	*resilientState
}

func (g sumsGuard) decorate(st Step, t *sched.Task) func() {
	a := g.a
	k, i, j := st.K, st.I, st.J
	switch st.Kind {
	case "potrf":
		// Witness the freshly factored diagonal tile before anyone else
		// (including an injection hook) can touch it.
		return func() { ft.TrilColSums(a.TileCols(k), a.Tile(k, k), a.TileRows(k), g.diag[k]) }
	case "trsm":
		// The 2×nb checksum pair goes through the identical right-side
		// solve A[i][k] ← A[i][k]·L[k][k]⁻ᵀ.
		t.Writes = append(t.Writes, g.handle(i, k))
		return func() {
			blas.Trsm(blas.Right, blas.Lower, blas.Trans, blas.NonUnit,
				2, a.TileCols(k), 1,
				a.Tile(k, k), a.TileRows(k), g.sum(i, k), 2)
		}
	case "gemm":
		// A[i][j] -= A[i][k]·A[j][k]ᵀ; the checksum pair of (i, j) follows
		// via E·(A[i][k]·A[j][k]ᵀ) = (E·A[i][k])·A[j][k]ᵀ = sums[i][k]·A[j][k]ᵀ.
		t.Reads = append(t.Reads, g.handle(i, k))
		t.Writes = append(t.Writes, g.handle(i, j))
		return func() {
			blas.Gemm(blas.NoTrans, blas.Trans,
				2, a.TileCols(j), a.TileCols(k),
				-1, g.sum(i, k), 2,
				a.Tile(j, k), a.TileRows(j),
				1, g.sum(i, j), 2)
		}
	}
	return nil
}

func (g sumsGuard) afterProgram(s sched.Scheduler) { g.submitSweep(s) }

func (g sumsGuard) afterTask(s sched.Scheduler, st Step) {
	switch st.Kind {
	case "potrf":
		k := st.K
		var panel [][2]int
		for i := k; i < g.a.MT; i++ {
			panel = append(panel, [2]int{i, k})
		}
		g.submitInject(s, k, st.Priority(g.kt), panel)
		g.submitVerify(s, k, k, st.Priority(g.kt))
	case "trsm":
		g.submitVerify(s, st.I, st.K, st.Priority(g.kt))
	}
}

// recordsGuard snapshots each tile's checksums once its panel step has
// finalized it, and verifies them right away.
type recordsGuard struct {
	noHooks
	*resilientState
}

func (g recordsGuard) afterProgram(s sched.Scheduler) { g.submitSweep(s) }

func (g recordsGuard) afterStep(s sched.Scheduler, k int) {
	a := g.a
	prio := priority(k, g.kt, bandUpdate)
	tiles := g.finalAt[k]
	for _, c := range tiles {
		i, j := c[0], c[1]
		s.Submit(sched.Task{
			Name:     "record",
			Priority: prio,
			Writes:   []sched.Handle{a.Handle(i, j), g.handle(i, j)},
			FnErr: g.unlessFailed(func() error {
				ft.ColSums(a.TileRows(i), a.TileCols(j), a.Tile(i, j), a.TileRows(i), g.sum(i, j))
				return nil
			}),
		})
	}
	g.submitInject(s, k, prio, tiles)
	for _, c := range tiles {
		g.submitVerify(s, c[0], c[1], prio)
	}
}

// submitInject submits the injection hook's task for panel step k, with
// write access to tiles.
func (st *resilientState) submitInject(s sched.Scheduler, k, prio int, tiles [][2]int) {
	if st.opt.InjectHook == nil {
		return
	}
	writes := make([]sched.Handle, len(tiles))
	for n, c := range tiles {
		writes[n] = st.a.Handle(c[0], c[1])
	}
	s.Submit(sched.Task{
		Name:     "inject",
		Priority: prio,
		Writes:   writes,
		FnErr: st.unlessFailed(func() error {
			st.opt.InjectHook(k, st.a)
			return nil
		}),
	})
}

// submitVerify submits the verification of tile (i, j) against its
// checksums.
func (st *resilientState) submitVerify(s sched.Scheduler, i, j, prio int) {
	var reads []sched.Handle
	if st.sum(i, j) != nil {
		reads = []sched.Handle{st.handle(i, j)}
	}
	s.Submit(sched.Task{
		Name:     "verify",
		Priority: prio,
		Reads:    reads,
		Writes:   []sched.Handle{st.a.Handle(i, j)},
		FnErr:    st.unlessFailed(func() error { return st.verifyTile(i, j) }),
	})
}

// erasureGuard commits each tile to its row parity group once the tile is
// final and verified, and runs a step's scheduled hard-fault injections
// right after the step's last commit. Maintained checksums verify a tile
// right after its last writer, so it is committed there — before the
// step's trailing update reads it, so even a loss within the step is
// recoverable; recorded checksums verify it after its step.
type erasureGuard struct {
	noHooks
	*resilientState
}

func (g erasureGuard) afterTask(s sched.Scheduler, st Step) {
	if !g.maintained() {
		return
	}
	_, w := st.Accesses()
	for _, c := range w {
		if g.last[c[0]+c[1]*g.a.MT] == st {
			g.submitCommit(s, c[0], c[1], st.K, st.Priority(g.kt))
		}
	}
}

func (g erasureGuard) afterStep(s sched.Scheduler, k int) {
	if g.maintained() {
		return
	}
	for _, c := range g.finalAt[k] {
		g.submitCommit(s, c[0], c[1], k, priority(k, g.kt, bandUpdate))
	}
}

// submitCommit submits the task that folds tile (i, j), finalized in panel
// step k, into its row parity group, followed by step k's losses once the
// step's last tile is committed. Reading the tile places the commit after
// the tile's final writer (and its verify); writing the row's parity
// handle serializes all parity operations in the row, which is the
// happens-before edge every later reconstruction relies on.
func (st *resilientState) submitCommit(s sched.Scheduler, i, j, k, prio int) {
	s.Submit(sched.Task{
		Name:     "commit",
		Priority: prio,
		Reads:    []sched.Handle{st.a.Handle(i, j)},
		Writes:   []sched.Handle{st.ers.RowHandle(i)},
		FnErr: st.unlessFailed(func() error {
			st.ers.Commit(i, j)
			return nil
		}),
	})
	st.committed[k]++
	if st.committed[k] == len(st.finalAt[k]) {
		st.submitLosses(s, k)
	}
}

// submitLosses submits this step's scheduled hard-fault injections: each
// target tile is wiped (the loss), and — unless the loss is Silent — a
// reconstruction task immediately rebuilds it from the row parity, the
// fail-stop recovery a real runtime performs when it knows which worker
// died. Silent losses are left for checksum verification to catch.
func (st *resilientState) submitLosses(s sched.Scheduler, step int) {
	a := st.a
	prio := priority(step, st.kt, bandUpdate)
	for _, l := range st.opt.LoseTiles {
		if l.Step != step {
			continue
		}
		s.Submit(sched.Task{
			Name:     "lose",
			Priority: prio,
			Writes:   []sched.Handle{a.Handle(l.I, l.J)},
			FnErr: st.unlessFailed(func() error {
				clear(a.Tile(l.I, l.J))
				if st.opt.Stats != nil {
					st.opt.Stats.Injected.Add(1)
				}
				return nil
			}),
		})
		if l.Silent {
			continue
		}
		s.Submit(sched.Task{
			Name:     "reconstruct",
			Priority: prio,
			Writes:   []sched.Handle{a.Handle(l.I, l.J), st.ers.RowHandle(l.I)},
			FnErr:    st.unlessFailed(func() error { return st.ers.ReconstructTile(l.I, l.J) }),
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

// verifyTile checks one tile against its checksums — a maintained
// diagonal tile against its lower-triangle witness, every other tile
// against full column sums. A fault pattern that looks like wholesale loss
// of a parity-committed tile is repaired by erasure reconstruction;
// otherwise located faults are corrected in place. Either repair is
// reported as a retryable corruption error (the retry re-runs this
// verification, which passes once the repair holds).
func (st *resilientState) verifyTile(i, j int) error {
	a := st.a
	var faults []ft.Fault
	if st.maintained() && i == j {
		faults = ft.VerifyTrilColSums(a.TileCols(j), a.Tile(j, j), a.TileRows(j), st.diag[j], st.tol)
	} else {
		faults = ft.VerifyColSums(a.TileRows(i), a.TileCols(j), a.Tile(i, j), a.TileRows(i), st.sum(i, j), st.tol)
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

// submitSweep submits the verification of every protected tile of the
// finished factor, aggregating faults across tiles into one retryable
// corruption error.
func (st *resilientState) submitSweep(s sched.Scheduler) {
	a := st.a
	var tiles [][2]int
	var writes []sched.Handle
	for j := 0; j < a.NT; j++ {
		for i := 0; i < a.MT; i++ {
			if st.sum(i, j) != nil || st.maintained() && i == j {
				tiles = append(tiles, [2]int{i, j})
				writes = append(writes, a.Handle(i, j))
			}
		}
	}
	s.Submit(sched.Task{
		Name:   "verify",
		Writes: writes,
		FnErr: st.unlessFailed(func() error {
			var all []ft.Fault
			corrected, reconstructed := 0, false
			for _, c := range tiles {
				err := st.verifyTile(c[0], c[1])
				if err == nil {
					continue
				}
				ce := err.(*ft.CorruptionError)
				all = append(all, ce.Faults...)
				corrected += ce.Corrected
				reconstructed = reconstructed || ce.Reconstructed
			}
			if len(all) == 0 {
				return nil
			}
			return &ft.CorruptionError{TileRow: -1, TileCol: -1, Faults: all, Corrected: corrected, Reconstructed: reconstructed}
		}),
	})
}
