package core

import (
	"fmt"

	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/metrics"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// This file holds the tile programs: each factorization's loop nest written
// once, as data. Program unrolls a nest into Steps, a Step knows the tiles it
// reads and writes and its priority, and Apply is the one place each
// kernel's operands and BLAS/LAPACK call are spelled out. Every executor
// walks the same steps: the in-process runtime (dataflow or fork–join), the
// sequential Recorder, the checkpointing and resuming drivers, and the
// distributed coordinator and its workers, which ship Steps over the wire.

// Operations with a tile program.
const (
	OpCholesky = "cholesky"
	// OpLUNoPiv is right-looking LU without pivoting, for diagonally
	// dominant matrices: its tile finalization order is data-independent.
	OpLUNoPiv = "lunp"
	// OpLU is right-looking LU with partial pivoting; its pivot vector
	// lives in Factors, outside the tiles.
	OpLU = "lu"
	// OpQR is tile Householder QR in the flat elimination order: each
	// panel's diagonal tile is factored, and the tiles below are folded
	// into its triangle one at a time (tsqrt), a chain of MT−k steps.
	OpQR = "qr"
	// OpQRTree is tile QR with a binary elimination tree per panel (the
	// CAQR order): every panel tile is factored on its own, and the
	// triangles are merged pairwise (ttqrt), log₂(MT−k) rounds deep. On a
	// single tile column it is TSQR.
	OpQRTree = "qrtree"
)

// DefaultTileSize is the library's tile size where nothing chooses another:
// a good default for the pure-Go kernels on current x86 cores (see the E5
// tile-size sweep in EXPERIMENTS.md).
const DefaultTileSize = 96

// Factors is what a factorization leaves besides its tiles. A holds the
// factor in place: L (Cholesky), L\U (LU), or R above the diagonal and
// the Householder vectors below it (QR). Piv is OpLU's pivot vector (see
// LU). T holds the block-reflector triangular factor of every geqrt and
// tsqrt, tile (i, k) for the reflectors stored in A's tile (i, k); T2
// holds OpQRTree's ttqrt factors the same way. The reflector tiles travel
// with their A tile: every task that writes T(i, k) or T2(i, k) also
// writes A(i, k), and every task that reads one also reads A(i, k).
type Factors[F blas.Float] struct {
	A     *tile.Matrix[F]
	Piv   []int
	T, T2 *tile.Matrix[F]

	op string
}

// newFactors allocates op's side state for a. A reflector tile is at most
// nb × TileCols(k), so T and T2 have A's tile rows and A's columns.
func newFactors[F blas.Float](op string, a *tile.Matrix[F]) *Factors[F] {
	f := &Factors[F]{A: a, op: op}
	switch op {
	case OpLU:
		f.Piv = make([]int, min(a.M, a.N))
	case OpQRTree:
		f.T2 = tile.New[F](a.MT*a.NB, a.N, a.NB)
		fallthrough
	case OpQR:
		f.T = tile.New[F](a.MT*a.NB, a.N, a.NB)
	}
	return f
}

// reflector returns the matrix of block-reflector factors that travels
// with tile (I, K) of a QR step of kind, and nil for the other kernels.
func (f *Factors[F]) reflector(kind string) *tile.Matrix[F] {
	if f == nil {
		return nil
	}
	switch kind {
	case "geqrt", "unmqr", "tsqrt", "tsmqr":
		return f.T
	case "ttqrt", "ttmqr":
		return f.T2
	}
	return nil
}

// Step is one tile task of a program: kernel Kind at panel step K on the
// tiles named by I and J. A kernel that spans a tile column, rows K…I,
// names its last tile row by I; a QR kernel names the tile row whose
// reflectors it forms or applies by I. Coordinates a kernel does not use
// are zero.
type Step struct {
	Kind    string
	K, I, J int
}

// Program unrolls op's loop nest over an mt×nt tile grid, starting at
// panel step from (the tiles must already hold the state of the earlier
// steps — the checkpoint/restart path), in submission order.
func Program(op string, mt, nt, from int) []Step {
	var p []Step
	add := func(kind string, k, i, j int) { p = append(p, Step{Kind: kind, K: k, I: i, J: j}) }
	for k := from; k < min(mt, nt); k++ {
		switch op {
		case OpCholesky:
			add("potrf", k, 0, 0)
			for i := k + 1; i < mt; i++ {
				add("trsm", k, i, 0)
			}
			for j := k + 1; j < nt; j++ {
				add("syrk", k, 0, j)
				for i := j + 1; i < mt; i++ {
					add("gemm", k, i, j)
				}
			}
		case OpLUNoPiv:
			add("getrfnp", k, 0, 0)
			for j := k + 1; j < nt; j++ {
				add("ltrsm", k, 0, j)
			}
			for i := k + 1; i < mt; i++ {
				add("utrsm", k, i, 0)
			}
			for j := k + 1; j < nt; j++ {
				for i := k + 1; i < mt; i++ {
					add("lgemm", k, i, j)
				}
			}
		case OpLU:
			add("getrf", k, mt-1, 0)
			for j := k + 1; j < nt; j++ {
				add("swptrsm", k, mt-1, j)
			}
			for j := k + 1; j < nt; j++ {
				for i := k + 1; i < mt; i++ {
					add("lgemm", k, i, j)
				}
			}
		case OpQR:
			add("geqrt", k, k, 0)
			for j := k + 1; j < nt; j++ {
				add("unmqr", k, k, j)
			}
			for i := k + 1; i < mt; i++ {
				add("tsqrt", k, i, 0)
				for j := k + 1; j < nt; j++ {
					add("tsmqr", k, i, j)
				}
			}
		case OpQRTree:
			for i := k; i < mt; i++ {
				add("geqrt", k, i, 0)
				for j := k + 1; j < nt; j++ {
					add("unmqr", k, i, j)
				}
			}
			// Round d folds row i into row i − d for every i at an odd
			// multiple of d below k.
			for d := 1; k+d < mt; d *= 2 {
				for i := k + d; i < mt; i += 2 * d {
					add("ttqrt", k, i, 0)
					for j := k + 1; j < nt; j++ {
						add("ttmqr", k, i, j)
					}
				}
			}
		default:
			panic(fmt.Sprintf("core: no tile program for op %q", op))
		}
	}
	return p
}

// LastWriters maps each tile prog writes to the index in prog of its last
// writer: the step whose completion finalizes the tile.
func LastWriters(prog []Step) map[[2]int]int {
	last := map[[2]int]int{}
	for id, st := range prog {
		_, w := st.Accesses()
		for _, c := range w {
			last[c] = id
		}
	}
	return last
}

// Accesses returns the tiles s reads and writes as (row, column) tile
// coordinates. A read-modify-written tile appears only among the writes.
func (s Step) Accesses() (reads, writes [][2]int) {
	k, i, j := s.K, s.I, s.J
	switch s.Kind {
	case "potrf", "getrfnp":
		return nil, [][2]int{{k, k}}
	case "getrf": // tile column k, rows k…I
		return nil, column(k, i, k)
	case "trsm", "utrsm": // A[i][k] ← A[i][k]·op(A[k][k])⁻¹
		return [][2]int{{k, k}}, [][2]int{{i, k}}
	case "ltrsm": // A[k][j] ← L[k][k]⁻¹·A[k][j]
		return [][2]int{{k, k}}, [][2]int{{k, j}}
	case "syrk": // A[j][j] -= A[j][k]·A[j][k]ᵀ
		return [][2]int{{j, k}}, [][2]int{{j, j}}
	case "gemm": // A[i][j] -= A[i][k]·A[j][k]ᵀ
		return [][2]int{{i, k}, {j, k}}, [][2]int{{i, j}}
	case "lgemm": // A[i][j] -= L[i][k]·U[k][j]
		return [][2]int{{i, k}, {k, j}}, [][2]int{{i, j}}
	case "swptrsm": // swap rows k…I of tile column j, then A[k][j] ← L[k][k]⁻¹·A[k][j]
		return [][2]int{{k, k}}, column(k, i, j)
	case "geqrt": // A[i][k] = Q·R
		return nil, [][2]int{{i, k}}
	case "unmqr": // A[i][j] ← Qᵀ·A[i][j], Q from A[i][k]
		return [][2]int{{i, k}}, [][2]int{{i, j}}
	case "tsqrt": // [R[k][k]; A[i][k]] = Q·R
		return nil, [][2]int{{k, k}, {i, k}}
	case "tsmqr": // [A[k][j]; A[i][j]] ← Qᵀ·[A[k][j]; A[i][j]], Q from A[i][k]
		return [][2]int{{i, k}}, [][2]int{{k, j}, {i, j}}
	case "ttqrt": // [R[p][k]; R[i][k]] = Q·R, p = treePartner(k, i)
		return nil, [][2]int{{treePartner(k, i), k}, {i, k}}
	case "ttmqr": // [A[p][j]; A[i][j]] ← Qᵀ·[A[p][j]; A[i][j]], Q from R[i][k]
		return [][2]int{{i, k}}, [][2]int{{treePartner(k, i), j}, {i, j}}
	}
	panic(fmt.Sprintf("core: unknown tile kernel %q", s.Kind))
}

// treePartner is the row OpQRTree's ttqrt at panel step k folds row i
// into: i − lowbit(i − k).
func treePartner(k, i int) int {
	d := i - k
	return i - d&-d
}

// column lists tiles (first, j) … (last, j).
func column(first, last, j int) [][2]int {
	c := make([][2]int, 0, last-first+1)
	for i := first; i <= last; i++ {
		c = append(c, [2]int{i, j})
	}
	return c
}

// Priority bands implement panel lookahead. A task's urgency is keyed to
// the panel column it feeds — the column of its (first) target tile — not
// the step that submitted it: the trailing updates that complete column k+1
// outrank the bulk updates of later columns, so the next panel
// factorization becomes ready (and overlaps the rest of the trailing
// update) as early as the DAG allows. This is the lookahead trick that lets
// HPL hide panel factorization behind the update, generalized to every
// column. Within one column, panel kernels outrank solves outrank updates,
// matching their order on the critical path.
const (
	bandUpdate = iota
	bandSolve
	bandPanel
)

// priority is the scheduling priority of a task in band feeding column col
// of a factorization with cols panel columns.
func priority(col, cols, band int) int { return 3*(cols-col) + band }

func (s Step) band() int {
	switch s.Kind {
	case "potrf", "getrfnp", "getrf", "geqrt", "tsqrt", "ttqrt", "trtri", "lauum":
		return bandPanel
	case "trsm", "utrsm", "ltrsm", "swptrsm", "unmqr":
		return bandSolve
	}
	return bandUpdate
}

// Priority is s's scheduling priority in a program with cols panel
// columns: 3·(cols − column of the first written tile) + band, where the
// band is 2 for panel, 1 for solve and 0 for update kernels.
func (s Step) Priority(cols int) int {
	_, w := s.Accesses()
	return priority(w[0][1], cols, s.band())
}

// phase names the fork–join phase s belongs to; a fork–join executor drains
// each phase before starting the next. A panel step splits into its panel,
// solve and update phases, except that the flat QR eliminates one tile row
// at a time: each row's tsqrt and its tsmqrs are one phase.
func (s Step) phase() [2]int {
	if s.Kind == "tsqrt" || s.Kind == "tsmqr" {
		return [2]int{s.K, bandPanel + 1 + s.I}
	}
	return [2]int{s.K, bandPanel - s.band()}
}

// Apply runs s's kernel in place on the tiles of a. f is the op's side
// state — OpLU's pivots, which its getrf steps write and its swptrsm steps
// read, or QR's reflector factors — and may be nil for the ops without
// one. A failing pivot is reported with its global index.
func Apply[F blas.Float](s Step, a *tile.Matrix[F], f *Factors[F]) error {
	return apply(s, a, f, nil, nil)
}

// apply is Apply with the shared packs an update step reads its A and B
// operands from (see pack.go); nil packs are packed by the product itself.
func apply[F blas.Float](s Step, a *tile.Matrix[F], f *Factors[F], pa, pb *blas.Packed[F]) error {
	k, i, j := s.K, s.I, s.J
	switch s.Kind {
	case "potrf":
		if err := lapack.Potrf(blas.Lower, a.TileCols(k), a.Tile(k, k), a.TileRows(k)); err != nil {
			perr := err.(*lapack.NotPositiveDefiniteError)
			return &lapack.NotPositiveDefiniteError{Index: k*a.NB + perr.Index}
		}
	case "trsm":
		blas.Trsm(blas.Right, blas.Lower, blas.Trans, blas.NonUnit,
			a.TileRows(i), a.TileCols(k), 1,
			a.Tile(k, k), a.TileRows(k), a.Tile(i, k), a.TileRows(i))
	case "syrk":
		blas.SyrkPrepacked(blas.Lower, blas.NoTrans, a.TileCols(j), a.TileCols(k),
			-1, a.Tile(j, k), a.TileRows(j), pa, pb, 1, a.Tile(j, j), a.TileRows(j))
	case "gemm":
		blas.GemmPrepacked(blas.NoTrans, blas.Trans,
			a.TileRows(i), a.TileCols(j), a.TileCols(k),
			-1, a.Tile(i, k), a.TileRows(i), pa,
			a.Tile(j, k), a.TileRows(j), pb,
			1, a.Tile(i, j), a.TileRows(i))
	case "getrfnp":
		return getrfnp(a.TileRows(k), a.TileCols(k), a.Tile(k, k), a.TileRows(k), k*a.NB)
	case "ltrsm":
		blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit,
			a.TileRows(k), a.TileCols(j), 1,
			a.Tile(k, k), a.TileRows(k), a.Tile(k, j), a.TileRows(k))
	case "utrsm":
		blas.Trsm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit,
			a.TileRows(i), a.TileCols(k), 1,
			a.Tile(k, k), a.TileRows(k), a.Tile(i, k), a.TileRows(i))
	case "lgemm":
		lgemm(a, k, i, a, j, pa, pb)
	case "getrf":
		return getrfPanel(a, k, i, f.Piv)
	case "swptrsm":
		swptrsm(a, f.Piv, k, a, j)
	case "geqrt":
		lapack.Geqrt(a.TileRows(i), a.TileCols(k), a.Tile(i, k), a.TileRows(i), f.T.Tile(i, k), f.T.TileRows(i))
	case "tsqrt":
		tsqrt(a.TileCols(k), a.TileRows(i),
			a.Tile(k, k), a.TileRows(k),
			a.Tile(i, k), a.TileRows(i),
			f.T.Tile(i, k), f.T.TileRows(i))
	case "ttqrt":
		t, p := f.T2, treePartner(k, i)
		ttqrt(a.TileCols(k), min(a.TileRows(i), a.TileCols(k)),
			a.Tile(p, k), a.TileRows(p),
			a.Tile(i, k), a.TileRows(i),
			t.Tile(i, k), t.TileRows(i))
	case "unmqr", "tsmqr", "ttmqr":
		qrApply(s.Kind, a, f.reflector(s.Kind), k, i, a, j)
	default:
		return fmt.Errorf("core: unknown tile kernel %q", s.Kind)
	}
	return nil
}

// singularAt shifts a tile-local *lapack.SingularError to the global index
// of a tile whose diagonal starts at off.
func singularAt(err error, off int) error {
	if err == nil {
		return nil
	}
	return &lapack.SingularError{Index: off + err.(*lapack.SingularError).Index}
}

// getrfnp is the unblocked right-looking LU factorization of an m×n tile
// without pivoting: A = L·U with unit-diagonal L, overwriting a. off is the
// tile's global diagonal offset, used only to report a zero pivot.
func getrfnp[F blas.Float](m, n int, a []F, lda, off int) error {
	for k := 0; k < m && k < n; k++ {
		piv := a[k+k*lda]
		if piv == 0 {
			return &lapack.SingularError{Index: off + k}
		}
		for i := k + 1; i < m; i++ {
			a[i+k*lda] /= piv
		}
		for j := k + 1; j < n; j++ {
			akj := a[k+j*lda]
			if akj == 0 {
				continue
			}
			for i := k + 1; i < m; i++ {
				a[i+j*lda] -= a[i+k*lda] * akj
			}
		}
	}
	return nil
}

// phaseNs maps a kernel band to its phase-time counter (metrics.go).
var phaseNs = [...]*metrics.Counter{bandUpdate: updateNs, bandSolve: solveNs, bandPanel: panelNs}

// guard is protection layered onto the walk of a tile program: ABFT
// checksums, erasure parity, checkpoints. It never changes the program's
// kernels; it rides along by
//   - decorate: adding accesses to a step's task before it is submitted and
//     returning work (or nil) to run inside that task right after its
//     kernel succeeds;
//   - afterTask: submitting its own tasks right after a step's task;
//   - afterStep: submitting its own tasks once panel step k's tasks (and
//     every guard's afterTask tasks) are submitted, before step k+1's — the
//     point where a consistent-frontier task such as a checkpoint goes;
//   - afterProgram: submitting its own tasks once every step's are, such
//     as ABFT's verification of the whole factor.
//
// Guards are called in order, so a later guard's tasks follow an earlier
// one's at each hook: the drivers list ABFT before erasure (a tile is
// committed to parity only once verified) and checkpointing last (a
// snapshot follows its step's verification).
type guard interface {
	decorate(st Step, t *sched.Task) (after func())
	afterTask(s sched.Scheduler, st Step)
	afterStep(s sched.Scheduler, k int)
	afterProgram(s sched.Scheduler)
}

// noHooks gives a guard no-op defaults for the hooks it does not use.
type noHooks struct{}

func (noHooks) decorate(Step, *sched.Task) func() { return nil }
func (noHooks) afterTask(sched.Scheduler, Step)   {}
func (noHooks) afterStep(sched.Scheduler, int)    {}
func (noHooks) afterProgram(sched.Scheduler)      {}

// submitProgram submits op's tile program over a to s — the one walk behind
// every in-process factorization driver — after the fills a deferred a
// still owes (see submitFills). f is the op's side state (nil allowed for
// the ops without one). With forkJoin set it drains each phase
// before starting the next instead of relying on dataflow dependences
// alone, folding each phase's task failures into es. The guards, if any,
// decorate and extend the walk (see guard).
//
// The trailing updates share one pack of each panel tile they read, held
// in the returned table (see pack.go); the caller releases it after the
// final wait.
//
// A Cholesky or no-pivot LU kernel error poisons the rest of the program —
// later tasks turn into no-ops so the DAG drains quickly — while pivoted LU
// reports a singular pivot and still runs to completion, like LAPACK's
// GETRF.
func submitProgram[F blas.Float](s sched.Scheduler, op string, a *tile.Matrix[F], f *Factors[F], es *errState, forkJoin bool, from int, guards ...guard) *packTable[F] {
	if (op == OpCholesky || op == OpLUNoPiv) && a.M != a.N {
		panic(fmt.Sprintf("core: %s needs a square matrix", op))
	}
	prog := Program(op, a.MT, a.NT, from)
	packs := newPackTable[F](prog, a.MT, a.NT)
	cols := min(a.MT, a.NT)
	submitFills(s, a, cols)
	for n, st := range prog {
		reads, writes := st.Accesses()
		refl, at := f.reflector(st.Kind), [2]int{st.I, st.K}
		t := sched.Task{
			Name:     st.Kind,
			Priority: st.Priority(cols),
			Reads:    handles(a, refl, at, reads),
			Writes:   handles(a, refl, at, writes),
		}
		var after []func()
		for _, g := range guards {
			if fn := g.decorate(st, &t); fn != nil {
				after = append(after, fn)
			}
		}
		pa, pb := packs.operands(st)
		t.Fn = timed(phaseNs[st.band()], func() {
			if op != OpLU && es.failed() {
				return
			}
			if err := apply(st, a, f, pa.packed(), pb.packed()); err != nil {
				es.set(err)
				return
			}
			for _, fn := range after {
				fn()
			}
			pa.retire()
			pb.retire()
		})
		s.Submit(t)
		for _, g := range guards {
			g.afterTask(s, st)
		}
		last := n == len(prog)-1
		if forkJoin && (last || prog[n+1].phase() != st.phase()) {
			drain(es, s)
		}
		if last || prog[n+1].K != st.K {
			for _, g := range guards {
				g.afterStep(s, st.K)
			}
		}
	}
	for _, g := range guards {
		g.afterProgram(s)
	}
	return packs
}

// handles maps tile coordinates to m's handles, each followed, at
// coordinates at, by the handle of the same tile of refl (if not nil): a QR
// step's reflector tile travels with its A tile.
func handles[F blas.Float](m, refl *tile.Matrix[F], at [2]int, cs [][2]int) []sched.Handle {
	hs := make([]sched.Handle, 0, len(cs)+1)
	for _, c := range cs {
		hs = append(hs, m.Handle(c[0], c[1]))
		if refl != nil && c == at {
			hs = append(hs, refl.Handle(c[0], c[1]))
		}
	}
	return hs
}

// submitFills submits the fills a deferred matrix m still owes
// (tile.Matrix.Fills) as one convert task per tile, each writing its tile,
// so a kernel waits only for the tiles it touches and the page faults of
// the fresh tiles spread over the workers. They rank above every task of
// a walk over cols panel columns; tile (0, 0) is submitted first.
func submitFills[F blas.Float](s sched.Scheduler, m *tile.Matrix[F], cols int) {
	for t, fill := range m.Fills() {
		s.Submit(sched.Task{
			Name:     "convert",
			Priority: priority(-1, cols, bandUpdate),
			Writes:   []sched.Handle{m.Handle(t%m.MT, t/m.MT)},
			Fn:       fill,
		})
	}
}

// submitGather submits one gather task per tile of m, reading it — so it
// runs once the tile's last writer submitted before it retires — and
// copying it to its place in out, m column-major with leading dimension
// m.M. They rank below every task of a walk.
func submitGather[F blas.Float](s sched.Scheduler, m *tile.Matrix[F], out []F) {
	for j := range m.NT {
		for i := range m.MT {
			s.Submit(sched.Task{
				Name:  "gather",
				Reads: []sched.Handle{m.Handle(i, j)},
				Fn:    func() { m.TileTo(out, i, j) },
			})
		}
	}
}
