package core

import (
	"fmt"

	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// This file holds the solves, written once as data like the factorizations
// (program.go): a factor op's solve is a list of sweeps over the (A, B)
// pair, a sweep unrolls into solveSteps, and one walk submits them. The
// inverse of an SPD matrix is two more sweeps, run with the Cholesky
// factor's own tiles as B.

// A sweep is one pass of a solve over the right-hand side B.
type sweep uint8

const (
	sweepL    sweep = iota // L·X = B forward, L in A's lower tiles
	sweepLT                // Lᵀ·X = B back
	sweepLU                // LU's interchanges and unit-L solves: its swptrsm and lgemm steps replayed forward
	sweepQT                // Qᵀ·B: QR's panel steps replayed forward as the unmqr, tsmqr and ttmqr applying them
	sweepU                 // U·X = B back, U in A's upper tiles (LU's U, QR's R)
	sweepInvL              // L ← L⁻¹ in place (TRTRI), tile columns last to first
	sweepWTW               // W ← Wᵀ·W in place for a lower-triangular W (LAUUM), tile rows first to last
)

// solves lists the sweeps that solve A·X = B with each op's factor — in
// the least-squares sense for QR, whose solution is B's first N rows.
var solves = map[string][]sweep{
	OpCholesky: {sweepL, sweepLT},
	OpLU:       {sweepLU, sweepU},
	OpQR:       {sweepQT, sweepU},
	OpQRTree:   {sweepQT, sweepU},
}

// inverse lists the sweeps that turn a Cholesky factor L, in place, into
// the lower triangle of A⁻¹ = L⁻ᵀ·L⁻¹.
var inverse = []sweep{sweepInvL, sweepWTW}

// qrUpdates maps each QR panel kernel to the kernel applying its
// reflectors to another tile column.
var qrUpdates = map[string]string{"geqrt": "unmqr", "tsqrt": "tsmqr", "ttqrt": "ttmqr"}

// solveStep is one right-hand-side task of a sweep: kernel Kind applies
// the factor tiles of panel step K to tile column J of B, with I naming a
// tile row as in Step (the row a gemm or lgemm updates, the last row a
// swptrsm swaps, the row whose reflectors a QR kernel applies). The inverse
// sweeps run on B = A: an L⁻¹ step writes tile (I, K), and a Wᵀ·W step,
// which reads tile column K's rows K…I as a getrf spans them, writes tile
// (K, J). pos is its position in the sweep, which sets its priority. Kind
// is the task name: it is shared with the factor kernel of the same name,
// the operands are not.
type solveStep struct {
	Step
	sw  sweep
	pos int
}

// steps unrolls sweep sw of a solve with op's factor of an mt×nt tile grid
// on a B of bnt tile columns, in submission order.
func (sw sweep) steps(op string, mt, nt, bnt int) []solveStep {
	kt := min(mt, nt)
	var p []solveStep
	add := func(kind string, pos, k, i, j int) {
		p = append(p, solveStep{Step{Kind: kind, K: k, I: i, J: j}, sw, pos})
	}
	switch sw {
	case sweepQT:
		for _, st := range Program(op, mt, nt, 0) {
			if kind, ok := qrUpdates[st.Kind]; ok {
				for j := range bnt {
					add(kind, st.K, st.K, st.I, j)
				}
			}
		}
	case sweepInvL:
		// Column k below the diagonal, bottom row first so every task reads
		// only tiles of column k it has yet to transform, then its
		// diagonal tile.
		for pos := range kt {
			k := kt - 1 - pos
			for i := kt - 1; i > k; i-- {
				add("trmm", pos, k, i, 0)
				add("trsm", pos, k, i, 0)
			}
			add("trtri", pos, k, k, 0)
		}
	case sweepWTW:
		// Row i left of the diagonal, then its diagonal tile, reading only
		// tile rows below i, which have yet to be transformed.
		for i := range kt {
			for j := range i {
				add("trmm", i, i, kt-1, j)
			}
			add("lauum", i, i, kt-1, i)
		}
	case sweepLU:
		for k := range kt {
			for j := range bnt {
				add("swptrsm", k, k, mt-1, j)
			}
			for j := range bnt {
				for i := k + 1; i < mt; i++ {
					add("lgemm", k, k, i, j)
				}
			}
		}
	default:
		// The triangular sweeps: solve with tile (k, k), then update the
		// tile rows the sweep has yet to reach.
		for pos := range kt {
			k, lo, hi := pos, pos+1, kt
			if sw != sweepL {
				k, lo, hi = kt-1-pos, 0, kt-1-pos
			}
			for j := range bnt {
				add("trsm", pos, k, 0, j)
				for i := lo; i < hi; i++ {
					add("gemm", pos, k, i, j)
				}
			}
		}
	}
	return p
}

// accesses returns the tiles of A st reads and the tiles of B it reads and
// writes, as (row, column) tile coordinates; a read-modify-written tile of
// B appears only among the writes. B is A in the inverse sweeps, which
// list every tile they read as A's.
func (st solveStep) accesses() (a, bReads, bWrites [][2]int) {
	k, i, j := st.K, st.I, st.J
	switch {
	case st.Kind == "trtri": // L[k][k] ← L[k][k]⁻¹
		return nil, nil, [][2]int{{k, k}}
	case st.Kind == "lauum": // W[k][k] ← W[k][k]ᵀ·W[k][k] + Σ_{l>k} W[l][k]ᵀ·W[l][k]
		return column(k+1, i, k), nil, [][2]int{{k, k}}
	case st.sw == sweepInvL && st.Kind == "trsm": // L[i][k] ← −L[i][k]·L[k][k]⁻¹
		return [][2]int{{k, k}}, nil, [][2]int{{i, k}}
	case st.sw == sweepInvL: // trmm: L[i][k] ← L⁻¹[i][i]·L[i][k] + Σ_{k<l<i} L⁻¹[i][l]·L[l][k]
		a := [][2]int{{i, i}}
		for l := k + 1; l < i; l++ {
			a = append(a, [2]int{i, l}, [2]int{l, k})
		}
		return a, nil, [][2]int{{i, k}}
	case st.sw == sweepWTW: // trmm: W[k][j] ← W[k][k]ᵀ·W[k][j] + Σ_{k<l≤i} W[l][k]ᵀ·W[l][j]
		a := [][2]int{{k, k}}
		for l := k + 1; l <= i; l++ {
			a = append(a, [2]int{l, k}, [2]int{l, j})
		}
		return a, nil, [][2]int{{k, j}}
	}
	switch st.Kind {
	case "trsm": // B[k][j] ← op(A[k][k])⁻¹·B[k][j]
		return [][2]int{{k, k}}, nil, [][2]int{{k, j}}
	case "gemm", "lgemm": // B[i][j] -= A[i][k]·B[k][j], or L[k][i]ᵀ·B[k][j] going back up L
		if st.sw == sweepLT {
			return [][2]int{{k, i}}, [][2]int{{k, j}}, [][2]int{{i, j}}
		}
		return [][2]int{{i, k}}, [][2]int{{k, j}}, [][2]int{{i, j}}
	}
	// swptrsm and the QR updates touch B's tiles as they touch A's own
	// tile column j when the factorization runs them.
	reads, writes := st.Step.Accesses()
	return reads, nil, writes
}

// applySolve runs st's kernel on tile column st.J of b with f's factor —
// on A itself in the inverse sweeps. It is keyed by the sweep, never by the
// task name alone, so a solve's trsm or gemm cannot reach the factor
// kernels of those names in Apply. A singular diagonal tile of L is
// reported with its global index.
func applySolve[F blas.Float](st solveStep, f *Factors[F], b *tile.Matrix[F]) error {
	a, k, i, j := f.A, st.K, st.I, st.J
	switch {
	case st.Kind == "trtri":
		return singularAt(lapack.Trtri(blas.Lower, blas.NonUnit, a.TileCols(k), a.Tile(k, k), a.TileRows(k)), k*a.NB)
	case st.sw == sweepInvL && st.Kind == "trsm":
		blas.Trsm(blas.Right, blas.Lower, blas.NoTrans, blas.NonUnit,
			a.TileRows(i), a.TileCols(k), -1,
			a.Tile(k, k), a.TileRows(k), a.Tile(i, k), a.TileRows(i))
	case st.sw == sweepInvL: // trmm: the diagonal term in place, then the strictly lower ones
		blas.Trmm(blas.Left, blas.Lower, blas.NoTrans, blas.NonUnit,
			a.TileRows(i), a.TileCols(k), 1,
			a.Tile(i, i), a.TileRows(i), a.Tile(i, k), a.TileRows(i))
		for l := k + 1; l < i; l++ {
			blas.Gemm(blas.NoTrans, blas.NoTrans,
				a.TileRows(i), a.TileCols(k), a.TileCols(l),
				1, a.Tile(i, l), a.TileRows(i),
				a.Tile(l, k), a.TileRows(l),
				1, a.Tile(i, k), a.TileRows(i))
		}
	case st.Kind == "lauum":
		lapack.Lauu2(blas.Lower, a.TileCols(k), a.Tile(k, k), a.TileRows(k))
		for l := k + 1; l <= i; l++ {
			blas.Syrk(blas.Lower, blas.Trans, a.TileCols(k), a.TileRows(l),
				1, a.Tile(l, k), a.TileRows(l), 1, a.Tile(k, k), a.TileRows(k))
		}
	case st.sw == sweepWTW: // trmm
		blas.Trmm(blas.Left, blas.Lower, blas.Trans, blas.NonUnit,
			a.TileRows(k), a.TileCols(j), 1,
			a.Tile(k, k), a.TileRows(k), a.Tile(k, j), a.TileRows(k))
		for l := k + 1; l <= i; l++ {
			blas.Gemm(blas.Trans, blas.NoTrans,
				a.TileCols(k), a.TileCols(j), a.TileRows(l),
				1, a.Tile(l, k), a.TileRows(l),
				a.Tile(l, j), a.TileRows(l),
				1, a.Tile(k, j), a.TileRows(k))
		}
	case st.sw == sweepQT:
		qrApply(st.Kind, a, f.reflector(st.Kind), k, i, b, j)
	case st.sw == sweepLU && st.Kind == "swptrsm":
		swptrsm(a, f.Piv, k, b, j)
	case st.Kind == "trsm":
		uplo, trans := blas.Lower, blas.NoTrans
		if st.sw == sweepLT {
			trans = blas.Trans
		} else if st.sw == sweepU {
			uplo = blas.Upper
		}
		// Only the top TileCols(k) rows of B's tile row k carry the
		// triangular system: all of them but at the foot of a tall
		// least-squares B.
		blas.Trsm(blas.Left, uplo, trans, blas.NonUnit,
			a.TileCols(k), b.TileCols(j), 1,
			a.Tile(k, k), a.TileRows(k), b.Tile(k, j), b.TileRows(k))
	case st.sw == sweepLT:
		blas.Gemm(blas.Trans, blas.NoTrans,
			b.TileRows(i), b.TileCols(j), a.TileCols(k),
			-1, a.Tile(k, i), a.TileRows(k),
			b.Tile(k, j), b.TileRows(k),
			1, b.Tile(i, j), b.TileRows(i))
	default: // the gemm of the L and U sweeps, LU's lgemm
		lgemm(a, k, i, b, j, nil, nil)
	}
	return nil
}

// submitSolve submits sweeps of a solve with f's factor on b, in place, to
// s — the one walk behind every right-hand-side driver and the inverse,
// whose b is f.A — after the fills a deferred b still owes. A task turns
// into a no-op once es holds an error, and records its own there.
func submitSolve[F blas.Float](s sched.Scheduler, f *Factors[F], b *tile.Matrix[F], es *errState, sweeps ...sweep) {
	a := f.A
	kt := min(a.MT, a.NT)
	if len(sweeps) > 0 {
		submitFills(s, b, kt)
	}
	for _, sw := range sweeps {
		for _, st := range sw.steps(f.op, a.MT, a.NT, b.NT) {
			ar, br, bw := st.accesses()
			at := [2]int{st.I, st.K}
			s.Submit(sched.Task{
				Name:     st.Kind,
				Priority: priority(st.pos, kt, st.band()),
				Reads:    append(handles(a, f.reflector(st.Kind), at, ar), handles(b, nil, at, br)...),
				Writes:   handles(b, nil, at, bw),
				Fn: timed(phaseNs[st.band()], func() {
					if es.failed() {
						return
					}
					if err := applySolve(st, f, b); err != nil {
						es.set(err)
					}
				}),
			})
		}
	}
}

// Factor factors a in place with op's tile program and, with b not nil,
// solves A·X = B with the factor in place on b — least squares for the QR
// ops (A tall), the solution in B's first N rows — all in one dataflow
// graph, then waits. It returns the factor, whose tiles are a's, and the
// first error: a kernel's (a non-positive-definite diagonal tile, a
// singular pivot) joined with the scheduler's task failures. With forkJoin
// set the factorization is the block-synchronous baseline, draining each
// phase (panel, solves, trailing update) before the next.
func Factor[F blas.Float](s sched.Scheduler, op string, a, b *tile.Matrix[F], forkJoin bool) (*Factors[F], error) {
	f := newFactors(op, a)
	var sweeps []sweep
	if b != nil {
		sweeps = f.solve()
	}
	return f, f.walk(s, true, forkJoin, 0, nil, b, sweeps, nil)
}

// walk is the one walk behind every driver: with factor set, f's op's
// tile program over f.A from panel step from under the guards g arms, then
// the sweeps on b, then, with out not nil, the gather of b into out, all
// in one dataflow graph with one final wait. It returns the first error,
// as Factor does, a sole one unwrapped to keep its concrete type.
func (f *Factors[F]) walk(s sched.Scheduler, factor, forkJoin bool, from int, g *Guards, b *tile.Matrix[F], sweeps []sweep, out []F) error {
	es := &errState{}
	packs := &packTable[F]{}
	if factor {
		guards, err := f.arm(g, from, es)
		if err != nil {
			return err
		}
		packs = submitProgram(s, f.op, f.A, f, es, forkJoin, from, guards...)
	}
	submitSolve(s, f, b, es, sweeps...)
	if out != nil {
		submitGather(s, b, out)
	}
	drain(es, s)
	packs.release()
	return es.get()
}

// drain waits for s and joins its aggregated task failures into es. A
// fork–join walk drains at every barrier, so a task failure there is the
// walk's error, not a panic.
func drain(es *errState, s sched.Scheduler) {
	if err := s.WaitErr(); err != nil {
		es.join(err)
	}
}

// Then names what a Run does with its factor on B.
type Then uint8

const (
	ThenSolve  Then = iota // A·X = B, as Solve
	ThenQT                 // Qᵀ·B, as ApplyQT
	ThenInvert             // A⁻¹'s lower triangle, as Potri; B is the factor's A
)

// Run is the one walk behind the column-major entry points: it factors a
// with op under the guards g — unless f is a factor already, when op, a
// and g are unused — then does then on b and gathers b into a fresh
// column-major array with leading dimension b.M, all in one dataflow
// graph. a and b may be tile.Deferred, the walk's first tasks filling
// them, so their sources are free again once Run returns. It waits and
// returns the factor, the array and the first error, as Factor does.
func Run[F blas.Float](s sched.Scheduler, f *Factors[F], op string, a, b *tile.Matrix[F], then Then, g *Guards) (*Factors[F], []F, error) {
	factor := f == nil
	if factor {
		f = newFactors(op, a)
	}
	sweeps := inverse
	switch then {
	case ThenSolve:
		sweeps = f.solve()
	case ThenQT:
		sweeps = []sweep{sweepQT}
	}
	out := make([]F, b.M*b.N)
	return f, out, f.walk(s, factor, false, 0, g, b, sweeps, out)
}

// Potri computes the inverse of an SPD tiled matrix in place from scratch:
// tile Cholesky, then the inverse sweeps — L ← L⁻¹, then Wᵀ·W — all in one
// dataflow graph. On return the lower tiles hold the lower triangle of
// A⁻¹.
func Potri[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) error {
	return newFactors(OpCholesky, a).walk(s, true, false, 0, nil, a, inverse, nil)
}

// Solve solves A·X = B in place on b (A's row tiling) with the factor f —
// least squares for a QR factor — and waits, returning the scheduler's task
// failures. f is only read, so solves may share it.
func Solve[F blas.Float](s sched.Scheduler, f *Factors[F], b *tile.Matrix[F]) error {
	return f.walk(s, false, false, 0, nil, b, f.solve(), nil)
}

// solve returns the sweeps of f's solve, panicking where f's op or shape
// has none: LU solves need a square A, QR's a tall one.
func (f *Factors[F]) solve() []sweep {
	sweeps, ok := solves[f.op]
	if !ok || f.op == OpLU && f.A.M != f.A.N || f.A.M < f.A.N {
		panic(fmt.Sprintf("core: no solve with a %d×%d %s factor", f.A.M, f.A.N, f.op))
	}
	return sweeps
}
