package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"exadla"
	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/metrics"
	"exadla/internal/mixed"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// libProblem is one seeded input of a library workload.
type libProblem struct {
	a, b  *exadla.Matrix
	normA float64 // filled by the oracle on first use
}

// libKind describes one closed-loop library workload: one caller, one public
// solve call per operation.
type libKind struct {
	rows, cols int // operator shape
	pool       int // distinct operators generated from the seed
	span       string
	flops      float64 // standard flop count of one operation
	gen        func(rng *rand.Rand, k *libKind) *exadla.Matrix
	solve      func(ctx *exadla.Context, p *libProblem) (*exadla.Matrix, error)
	// berr scores an answer; tol is the acceptance threshold.
	berr func(k *libKind, p *libProblem, x []float64) float64
	tol  float64
	// Tiled workloads only: the call into core the public function makes
	// between tiling its inputs and untiling the answer (and its span name),
	// the factorization alone, and the name of the probe holding the serial
	// lapack rate at this size.
	coreSpan  string
	coreCall  func(s *sched.Runtime, ta, tb *tile.Matrix[float64]) error
	factor    func(s *sched.Runtime, t *tile.Matrix[float64]) error
	serialKey string
}

const (
	cholN        = 1536
	luN          = 1024
	lsM, lsN     = 4096, 256
	mixedN       = 1024
	mixedCond    = 1e4
	rhsPerMatrix = 4
)

func squareSolveBerr(k *libKind, p *libProblem, x []float64) float64 {
	if p.normA == 0 {
		p.normA = normInfMat(k.rows, k.cols, p.a.Data())
	}
	return solveBackwardError(k.rows, p.a.Data(), x, p.b.Data(), p.normA)
}

var libKinds = map[string]*libKind{
	"chol_large": {
		rows: cholN, cols: cholN, pool: 2, span: "exadla.solve_spd",
		flops: float64(cholN) * cholN * cholN / 3,
		gen:   func(rng *rand.Rand, k *libKind) *exadla.Matrix { return exadla.RandomSPD(rng, k.rows) },
		solve: func(ctx *exadla.Context, p *libProblem) (*exadla.Matrix, error) { return ctx.SolveSPD(p.a, p.b) },
		berr:  squareSolveBerr, tol: solveTol(cholN),
		coreSpan:  "core.posv",
		coreCall:  func(s *sched.Runtime, ta, tb *tile.Matrix[float64]) error { return core.Posv(s, ta, tb) },
		factor:    func(s *sched.Runtime, t *tile.Matrix[float64]) error { return core.Cholesky(s, t) },
		serialKey: "lapack.potrf.gflops",
	},
	"lu_large": {
		rows: luN, cols: luN, pool: 2, span: "exadla.solve",
		flops: 2 * float64(luN) * luN * luN / 3,
		gen:   func(rng *rand.Rand, k *libKind) *exadla.Matrix { return exadla.RandomGeneral(rng, k.rows, k.cols) },
		solve: func(ctx *exadla.Context, p *libProblem) (*exadla.Matrix, error) { return ctx.Solve(p.a, p.b) },
		berr:  squareSolveBerr, tol: solveTol(luN),
		coreSpan: "core.gesv",
		coreCall: func(s *sched.Runtime, ta, tb *tile.Matrix[float64]) error {
			_, err := core.Gesv(s, ta, tb)
			return err
		},
		factor: func(s *sched.Runtime, t *tile.Matrix[float64]) error {
			_, err := core.LU(s, t)
			return err
		},
		serialKey: "lapack.getrf.gflops",
	},
	"ls_tall": {
		rows: lsM, cols: lsN, pool: 2, span: "exadla.least_squares",
		flops: 2*float64(lsM)*lsN*lsN - 2*float64(lsN)*lsN*lsN/3,
		gen:   func(rng *rand.Rand, k *libKind) *exadla.Matrix { return exadla.RandomGeneral(rng, k.rows, k.cols) },
		solve: func(ctx *exadla.Context, p *libProblem) (*exadla.Matrix, error) { return ctx.LeastSquares(p.a, p.b) },
		berr: func(k *libKind, p *libProblem, x []float64) float64 {
			if p.normA == 0 {
				p.normA = norm2(p.a.Data()) // Frobenius
			}
			return lsBackwardError(k.rows, k.cols, p.a.Data(), x, p.b.Data(), p.normA)
		},
		tol:      solveTol(lsM),
		coreSpan: "core.gels",
		coreCall: func(s *sched.Runtime, ta, tb *tile.Matrix[float64]) error {
			core.Gels(s, ta, tb)
			return nil
		},
		factor: func(s *sched.Runtime, t *tile.Matrix[float64]) error {
			core.QR(s, t)
			return nil
		},
		serialKey: "lapack.geqrf.gflops",
	},
	"mixed_spd": {
		rows: mixedN, cols: mixedN, pool: 2, span: "exadla.solve_mixed_spd",
		flops: float64(mixedN) * mixedN * mixedN / 3,
		gen: func(rng *rand.Rand, k *libKind) *exadla.Matrix {
			return exadla.RandomSPDWithCond(rng, k.rows, mixedCond)
		},
		solve: func(ctx *exadla.Context, p *libProblem) (*exadla.Matrix, error) {
			x, _, err := ctx.SolveMixedSPD(p.a, p.b)
			return x, err
		},
		berr: squareSolveBerr, tol: mixedTol,
	},
}

// replay runs one operation as the public function does — column-major in,
// the call into core, column-major out, at the library's default tile size —
// with a span around each of the three.
func (k *libKind) replay(rec *recorder, op, parent int, s *sched.Runtime, p *libProblem) error {
	id := rec.begin("tile.from_colmajor", op, parent)
	m, n := p.a.Dims()
	_, nrhs := p.b.Dims()
	ta := tile.FromColMajor(m, n, p.a.Data(), m, exadla.DefaultTileSize)
	tb := tile.FromColMajor(m, nrhs, p.b.Data(), m, exadla.DefaultTileSize)
	rec.end(id)
	id = rec.begin(k.coreSpan, op, parent)
	err := k.coreCall(s, ta, tb)
	rec.end(id)
	id = rec.begin("tile.to_colmajor", op, parent)
	_ = tb.ToColMajor()
	rec.end(id)
	return err
}

// libWorkload runs a libKind. Every operation gets a fresh default Context,
// opened and closed outside the clock: a Context keeps every tile matrix it
// has touched reachable (sched.Runtime never prunes its last-writer map), so
// one long-lived Context grows by the operator's size per call, and on this
// kind of VM the run then measures first-touch page faults, not the solver.
type libWorkload struct {
	kind     *libKind
	cfg      runConfig
	problems []*libProblem
	answers  [][]float64
}

func newLibWorkload(name string) func(cfg runConfig) workload {
	return func(cfg runConfig) workload {
		return &libWorkload{kind: libKinds[name], cfg: cfg}
	}
}

func (w *libWorkload) setUp() error {
	k := w.kind
	rng := rand.New(rand.NewSource(w.cfg.seed))
	w.problems = w.problems[:0]
	for i := 0; i < k.pool; i++ {
		a := k.gen(rng, k)
		for r := 0; r < rhsPerMatrix; r++ {
			w.problems = append(w.problems, &libProblem{a: a, b: exadla.RandomGeneral(rng, k.rows, 1)})
		}
	}
	// Warm-up: one operation per distinct operator, so code, pools and the
	// allocator have reached their steady state before the clock starts.
	for i := 0; i < k.pool; i++ {
		if _, _, err := w.timeOp(w.problems[i*rhsPerMatrix]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *libWorkload) tearDown() {}

func (w *libWorkload) problem(i int) *libProblem { return w.problems[i%len(w.problems)] }

// timeOp runs one public solve on a fresh Context and returns its latency.
func (w *libWorkload) timeOp(p *libProblem, opts ...exadla.Option) (time.Duration, []float64, error) {
	ctx := exadla.NewContext(opts...)
	defer ctx.Close()
	t := time.Now()
	x, err := w.kind.solve(ctx, p)
	d := time.Since(t)
	if err != nil {
		return d, nil, err
	}
	return d, x.Data(), nil
}

func (w *libWorkload) measure() (*pass, error) {
	n := w.cfg.count
	p := &pass{fg: make([]opResult, n)}
	w.answers = make([][]float64, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		d, x, err := w.timeOp(w.problem(i))
		p.fg[i].latencyMs = msOf(d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "op %d: %v\n", i, err)
			continue
		}
		w.answers[i] = x
	}
	p.wallS = time.Since(t0).Seconds()
	w.verify(p)
	return p, nil
}

// verify scores every stored answer after the clock has stopped.
func (w *libWorkload) verify(p *pass) {
	for i := range p.fg {
		p.fg[i].ok = false
		if w.answers[i] == nil {
			continue // the operation itself failed
		}
		be := w.kind.berr(w.kind, w.problem(i), w.answers[i])
		p.fg[i].ok = be <= w.kind.tol
		if !p.fg[i].ok {
			fmt.Fprintf(os.Stderr, "op %d: backward error %.3g exceeds %.3g\n", i, be, w.kind.tol)
		}
	}
}

// medianMs times f reps times and returns the median in milliseconds.
func medianMs(reps int, f func() (time.Duration, error)) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		d, err := f()
		if err != nil {
			return 0, err
		}
		xs[i] = msOf(d)
	}
	return median(xs), nil
}

func (w *libWorkload) trace(rec *recorder, probes map[string]float64) (map[string]float64, error) {
	k := w.kind
	n := w.cfg.traced()
	out := map[string]float64{}
	reg := metrics.Enable()
	defer metrics.Disable()

	// 1. The public call, with the library's own tracing and metrics on.
	reg.Reset()
	var traced []float64
	var busyWall time.Duration
	var t1, tInf float64 // work and critical path of the last traced DAG
	for i := 0; i < n; i++ {
		ctx := exadla.NewContext(exadla.WithTracing())
		id := rec.begin(k.span, i, -1)
		t := time.Now()
		_, err := k.solve(ctx, w.problem(i))
		d := time.Since(t)
		rec.end(id)
		if lg := ctx.TraceLog(); lg != nil && i == n-1 {
			st := lg.AnalyzeDAG()
			t1, tInf = st.T1, st.TInf
		}
		ctx.Close()
		if err != nil {
			return nil, fmt.Errorf("traced op %d: %w", i, err)
		}
		traced = append(traced, msOf(d))
		busyWall += d
	}
	snap := reg.Snapshot()
	out["sched.busy_share"] = float64(workerBusyNs(snap.Counters)) / (float64(nproc()) * float64(busyWall))
	if tInf > 0 {
		out["sched.dag_bound"] = t1 / tInf
	}
	if tot := snap.Counters["core.panel_ns"] + snap.Counters["core.solve_ns"] + snap.Counters["core.update_ns"]; tot > 0 {
		out["core.panel_share"] = float64(snap.Counters["core.panel_ns"]) / float64(tot)
	}
	metrics.Disable()

	// 2. The same operations untraced: the cost of looking, and the base
	// for every ratio below.
	next := 0
	plain, err := medianMs(n, func() (time.Duration, error) {
		d, _, err := w.timeOp(w.problem(next))
		next++
		return d, err
	})
	if err != nil {
		return nil, err
	}
	out["obs.trace_overhead_share"] = median(traced)/plain - 1
	out["exadla.gflops"] = k.flops / (plain * 1e6)

	if k.coreCall == nil {
		return w.traceMixed(rec, out, plain)
	}

	// 3. The operation decomposed into its calls into tile and core, each on
	// a fresh runtime, as each public call gets a fresh Context.
	var replayMs []float64
	for i := 0; i < n; i++ {
		s := sched.New(nproc())
		root := rec.begin(k.span+".replay", n+i, -1)
		t := time.Now()
		err := k.replay(rec, n+i, root, s, w.problem(i))
		replayMs = append(replayMs, msOf(time.Since(t)))
		rec.end(root)
		s.Shutdown()
		if err != nil {
			return nil, fmt.Errorf("replay %d: %w", i, err)
		}
	}
	total, _ := rec.selfTimes()
	out["tile.convert_share"] = share(total, "tile.from_colmajor", k.span+".replay") + share(total, "tile.to_colmajor", k.span+".replay")
	out["exadla.api_gap_share"] = (plain - median(replayMs)) / plain

	// 4. One worker against all of them, and the factorization alone.
	one, err := medianMs(3, func() (time.Duration, error) {
		d, _, err := w.timeOp(w.problem(0), exadla.WithWorkers(1))
		return d, err
	})
	if err != nil {
		return nil, err
	}
	out["sched.scaling_eff"] = one / (float64(nproc()) * plain)
	for _, workers := range []int{nproc(), 1} {
		ms, err := medianMs(3, func() (time.Duration, error) {
			a := w.problem(0).a
			t := tile.FromColMajor(k.rows, k.cols, a.Data(), k.rows, exadla.DefaultTileSize)
			s := sched.New(workers)
			defer s.Shutdown()
			t0 := time.Now()
			err := k.factor(s, t)
			return time.Since(t0), err
		})
		if err != nil {
			return nil, err
		}
		gf := k.flops / (ms * 1e6)
		if workers == 1 {
			if serial := probes[k.serialKey]; serial > 0 {
				out["core.tiled_over_serial"] = gf / serial
			}
		} else {
			out["core.factor_gflops"] = gf
		}
	}
	if k == libKinds["chol_large"] {
		if err := w.traceResilience(out, plain); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traceResilience prices the fault-tolerance options on the chol_large
// operation: option on ÷ option off − 1. The gated workloads run with all
// of them off. Checkpointing is priced on Context.Cholesky, because
// SolveSPD does not checkpoint whatever WithCheckpoint says.
func (w *libWorkload) traceResilience(out map[string]float64, plain float64) error {
	for _, o := range []struct {
		name string
		opt  exadla.Option
	}{
		{"ft.abft_overhead_share", exadla.WithFaultTolerance()},
		{"ft.erasure_overhead_share", exadla.WithErasure()},
	} {
		ms, err := medianMs(3, func() (time.Duration, error) {
			d, _, err := w.timeOp(w.problem(0), o.opt)
			return d, err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
		out[o.name] = ms/plain - 1
	}

	dir := filepath.Join(w.cfg.scratch, fmt.Sprintf("ckpt-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	factor := func(opts ...exadla.Option) (float64, error) {
		return medianMs(3, func() (time.Duration, error) {
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return 0, err
			}
			ctx := exadla.NewContext(opts...)
			defer ctx.Close()
			t := time.Now()
			_, err := ctx.Cholesky(w.problem(0).a)
			return time.Since(t), err
		})
	}
	off, err := factor()
	if err != nil {
		return err
	}
	on, err := factor(exadla.WithCheckpoint(dir, 4))
	if err != nil {
		return fmt.Errorf("checkpointed factorization: %w", err)
	}
	out["ckpt.overhead_share"] = on/off - 1
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var written int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil {
			written += fi.Size()
		}
	}
	if on > off {
		out["ckpt.save_mbs"] = float64(written) / 1e6 / ((on - off) / 1e3)
	}
	return nil
}

// traceMixed replays the mixed-precision solve as its one call into
// internal/mixed and sets it against the float64 solve of the same system.
func (w *libWorkload) traceMixed(rec *recorder, out map[string]float64, plain float64) (map[string]float64, error) {
	k := w.kind
	n := w.cfg.traced()
	var iters, fell, berrMax float64
	for i := 0; i < n; i++ {
		p := w.problem(i)
		root := rec.begin(k.span+".replay", n+i, -1)
		id := rec.begin("mixed.solve_cholesky", n+i, root)
		x := make([]float64, k.rows)
		res, err := mixed.SolveCholesky(k.rows, p.a.Data(), k.rows, p.b.Data(), x)
		rec.end(id)
		rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("mixed replay %d: %w", i, err)
		}
		iters += float64(res.Iterations)
		if res.FellBack {
			fell++
		}
		berrMax = math.Max(berrMax, k.berr(k, p, x))
	}
	out["mixed.refine_iters"] = iters / float64(n)
	out["mixed.fallback_share"] = fell / float64(n)
	out["mixed.berr_max"] = berrMax
	f64, err := medianMs(5, func() (time.Duration, error) {
		ctx := exadla.NewContext()
		defer ctx.Close()
		t := time.Now()
		_, err := ctx.SolveSPD(w.problem(0).a, w.problem(0).b)
		return time.Since(t), err
	})
	if err != nil {
		return nil, err
	}
	out["mixed.over_f64"] = plain / f64
	f32, err := medianMs(3, func() (time.Duration, error) {
		a32 := make([]float32, k.rows*k.cols)
		for i, v := range w.problem(0).a.Data() {
			a32[i] = float32(v)
		}
		t := time.Now()
		err := lapack.Potrf(blas.Lower, k.rows, a32, k.rows)
		return time.Since(t), err
	})
	if err != nil {
		return nil, err
	}
	out["mixed.factor32_ms"] = f32
	return out, nil
}
