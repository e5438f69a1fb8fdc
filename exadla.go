// Package exadla is a pure-Go dense linear algebra library built around the
// "new rules" of extreme-scale computing (Dongarra, ICMS/HPDC 2016): tile
// algorithms scheduled as dataflow DAGs instead of fork–join phases,
// mixed-precision iterative refinement, communication-avoiding QR,
// algorithm-based fault tolerance, batched kernels, randomized solvers, and
// empirical autotuning.
//
// The entry point is a Context, which owns a worker pool and tuning
// parameters:
//
//	ctx := exadla.NewContext(exadla.WithWorkers(8))
//	defer ctx.Close()
//
//	a := exadla.NewMatrix(n, n)        // fill with an SPD matrix
//	b := exadla.NewMatrix(n, 1)        // right-hand side
//	x, err := ctx.SolveSPD(a, b)       // tile Cholesky + triangular solves
//
// Factorizations return factor objects that can be reused for multiple
// right-hand sides. Higher-level drivers (SolveMixed, LeastSquares,
// RandomizedLeastSquares) expose the specialised solvers; communication-
// avoiding TSQR is QRTree on a tall matrix whose tile holds every column
// (the deprecated TSQRLeastSquares runs exactly that).
package exadla

import (
	"log/slog"
	"runtime"
	"sync/atomic"
	"time"

	"exadla/internal/autotune"
	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/ft"
	"exadla/internal/metrics"
	"exadla/internal/obs"
	"exadla/internal/sched"
	"exadla/internal/trace"
)

// DefaultTileSize, 96, is the tile size used when neither an option nor the
// tuning table overrides it.
const DefaultTileSize = core.DefaultTileSize

// Context owns the scheduler and configuration shared by the library's
// operations. A Context is safe for sequential use; concurrent calls on the
// same Context would interleave task graphs and must be externally
// serialized. Create one Context per concurrent stream instead.
type Context struct {
	workers  int
	tileSize int
	tracing  bool
	tuning   *autotune.Table

	// Fault-tolerance configuration (fault.go).
	faultTolerant bool
	erasure       bool
	retryMax      int
	retryBackoff  time.Duration
	retrySet      bool

	// Chaos and liveness configuration (fault.go): the soft and hard
	// chaos modes, whether WithHardChaos set its retry and deadline
	// defaults, and the watchdog deadline.
	chaos        sched.Chaos
	hardChaos    bool
	taskDeadline time.Duration

	// Checkpoint/restart configuration (checkpoint.go).
	ckptDir   string
	ckptEvery int

	// Fault-tolerance counters (see Context.FaultStats).
	ftStats  ft.Stats
	retried  atomic.Int64
	failed   atomic.Int64
	timedOut atomic.Int64

	rt  *sched.Runtime
	log *trace.Log

	// Observability (obs.go).
	obsAddr  string
	obs      *obs.Server
	eventLog *slog.Logger
}

// Option configures a Context.
type Option func(*Context)

// WithWorkers sets the worker pool size. The default is GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *Context) { c.workers = n }
}

// WithTileSize sets the tile size used by the tiled algorithms.
func WithTileSize(nb int) Option {
	return func(c *Context) {
		if nb < 1 {
			panic("exadla: tile size must be positive")
		}
		c.tileSize = nb
	}
}

// WithTracing enables per-task execution tracing; see Context.TraceStats
// and Context.TraceLog.
func WithTracing() Option {
	return func(c *Context) { c.tracing = true }
}

// WithMetrics enables runtime metrics collection (scheduler task counts and
// occupancy, per-kernel latency histograms, BLAS flop rates, factorization
// phase timings). The underlying registry is process-global: enabling it on
// one Context enables it for every Context in the process, and it stays
// enabled after the Context is closed. See Context.Metrics.
func WithMetrics() Option {
	return func(c *Context) { metrics.Enable() }
}

// WithTuningTable loads the autotuner's persistent table (as written by
// cmd/exatune) and uses its per-operation tile sizes, falling back to the
// configured tile size for untuned shapes. Machine-global gemm.* blocking
// keys (exatune -op gemm) are installed into the packed GEMM kernel
// immediately — the blocking is process-global, like the metrics registry.
// A missing file yields an empty table; a corrupt file panics, since
// silently ignoring a requested tuning configuration would be worse.
func WithTuningTable(path string) Option {
	return func(c *Context) {
		t, err := autotune.Load(path)
		if err != nil {
			panic("exadla: " + err.Error())
		}
		c.tuning = t
		applyGemmTuning(t)
	}
}

// applyGemmTuning installs any machine-global gemm.* blocking parameters
// from the tuning table into the packed GEMM kernel. Absent keys leave the
// corresponding field at its current value (SetGemmBlocking treats zero as
// "keep default"), and out-of-range values are clamped there, so a partial
// or stale table can never produce an invalid blocking.
func applyGemmTuning(t *autotune.Table) {
	var b blas.Blocking
	changed := false
	set := func(key string, field *int) {
		if v, ok := t.Lookup(autotune.GlobalKey(key)); ok {
			*field = v
			changed = true
		}
	}
	set("gemm.mr", &b.MR)
	set("gemm.nr", &b.NR)
	set("gemm.mc", &b.MC)
	set("gemm.kc", &b.KC)
	set("gemm.nc", &b.NC)
	if changed {
		cur := blas.GemmBlocking()
		if b.MR == 0 {
			b.MR = cur.MR
		}
		if b.NR == 0 {
			b.NR = cur.NR
		}
		if b.MC == 0 {
			b.MC = cur.MC
		}
		if b.KC == 0 {
			b.KC = cur.KC
		}
		if b.NC == 0 {
			b.NC = cur.NC
		}
		blas.SetGemmBlocking(b)
	}
}

// tileSizeFor resolves the tile size for an operation on an n-sized
// problem: exact tuning-table hit first, configured default otherwise.
func (c *Context) tileSizeFor(op string, n int) int {
	if c.tuning != nil {
		if nb, ok := c.tuning.Lookup(autotune.Key(op, n, c.workers)); ok && nb > 0 {
			return nb
		}
	}
	return c.tileSize
}

// NewContext creates a Context and starts its worker pool.
func NewContext(opts ...Option) *Context {
	c := &Context{
		workers:  runtime.GOMAXPROCS(0),
		tileSize: DefaultTileSize,
	}
	for _, o := range opts {
		o(c)
	}
	var schedOpts []sched.Option
	if c.tracing {
		c.log = trace.NewLog()
		schedOpts = append(schedOpts, sched.WithTracer(c.log))
	}
	schedOpts = append(schedOpts, c.faultSchedOpts()...)
	c.rt = sched.New(c.workers, schedOpts...)
	c.startObs()
	return c
}

// Close stops the worker pool and the observability server, if any. The
// Context must not be used afterwards.
func (c *Context) Close() {
	c.rt.Shutdown()
	_ = c.obs.Close()
}

// Workers reports the worker pool size.
func (c *Context) Workers() int { return c.workers }

// TileSize reports the configured tile size.
func (c *Context) TileSize() int { return c.tileSize }

// TraceStats returns the work/span analysis of the execution trace
// collected so far: Tasks counts distinct tasks, Attempts counts task
// attempts (retries included), and ByKernel sums attempt seconds per
// kernel. It returns zero statistics unless the Context was created
// WithTracing.
func (c *Context) TraceStats() trace.DAGStats {
	if c.log == nil {
		return trace.DAGStats{}
	}
	return c.log.AnalyzeDAG()
}

// TraceLog exposes the raw trace log (nil without WithTracing), for Gantt
// rendering and custom analysis.
func (c *Context) TraceLog() *trace.Log { return c.log }

// ResetTrace discards collected trace events.
func (c *Context) ResetTrace() {
	if c.log != nil {
		c.log.Reset()
	}
}

// Metrics returns a point-in-time snapshot of the process-global metrics
// registry: counters, gauges and latency histograms accumulated since the
// last ResetMetrics. With metrics never enabled (see WithMetrics) the
// snapshot is empty. Use Snapshot.WriteJSON or Snapshot.WriteText to export
// it; see DESIGN.md for the metric-name catalogue and how to read one.
func (c *Context) Metrics() metrics.Snapshot {
	return metrics.Default().Snapshot()
}

// ResetMetrics zeroes all accumulated metrics, keeping collection enabled or
// disabled as it was. Like the registry itself this is process-global.
func (c *Context) ResetMetrics() {
	metrics.Reset()
}

// scheduler returns the Context's scheduler.
func (c *Context) scheduler() sched.Scheduler { return c.rt }
