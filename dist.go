package exadla

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"exadla/internal/core"
	"exadla/internal/dist"
	"exadla/internal/metrics"
	"exadla/internal/obs"
	"exadla/internal/tile"
)

// This file is the public face of the multi-process distributed runtime
// (internal/dist): a coordinator that owns the task DAG and the tile
// object store, serving stateless workers that pull tasks over net/rpc.
// Workers may die (SIGKILL), hang past their lease, join mid-run, or sit
// behind a flaky network — the factor that comes out is bitwise identical
// to a single-process run, because the DAG serializes writers and a
// revoked lease's late commit is never applied.
//
// Serve side:
//
//	job, _ := exadla.ServeDist("127.0.0.1:7000", a, exadla.DistConfig{})
//	l, err := job.Run() // blocks until the factorization completes
//
// Worker side (any number of processes, any time):
//
//	err := exadla.JoinDist("coordinator:7000", exadla.DistChaos{})

// Distributed operations accepted by DistConfig.Op.
const (
	// DistCholesky factors an SPD matrix into its lower Cholesky factor.
	DistCholesky = dist.OpCholesky
	// DistLUNoPiv factors without pivoting (deterministic task graph; the
	// matrix must make pivot-free elimination stable, e.g. diagonally
	// dominant).
	DistLUNoPiv = dist.OpLUNoPiv
)

// ErrDistCheckpointOp is wrapped by the error of a ResumeDist whose
// DistConfig.Op contradicts the op its checkpoint records.
var ErrDistCheckpointOp = dist.ErrCheckpointOp

// DistChaos configures the seeded wire-fault injector a joining worker
// wraps around every RPC (drop requests, drop replies after execution,
// duplicate, delay, flip payload bits in flight, or silence everything
// for a partition window). The zero value injects nothing.
type DistChaos = dist.NetChaos

// DistStats is a point-in-time snapshot of a distributed job's counters.
type DistStats = dist.StatsSnapshot

// DistStatus is the coordinator's live cluster snapshot: per-worker health
// (liveness, heartbeat age, clock offset, spans shipped), the outstanding
// lease table, the eviction log, and progress counters. Served as JSON on
// the ServeObs /dist endpoint.
type DistStatus = dist.ClusterStatus

// DistConfig tunes a distributed job. The zero value runs Cholesky with
// the Context-independent defaults: tile size DefaultTileSize, a 1×1
// logical grid, caching enabled, no checkpoints.
type DistConfig struct {
	// Op is DistCholesky (ServeDist's default) or DistLUNoPiv; ResumeDist
	// takes the checkpoint's when it is empty.
	Op string
	// TileSize is the tile edge; DefaultTileSize when zero.
	TileSize int
	// GridP×GridQ is the logical process grid for block-cyclic placement.
	GridP, GridQ int
	// Strict enforces owner-computes placement on the grid and disables
	// remote-tile caching, so measured traffic matches the replay cost
	// model (dist.Count) exactly. Requires GridP·GridQ registered workers;
	// set WaitWorkers accordingly.
	Strict bool
	// WriteBack lets the store drop finalized tiles whose bytes a worker
	// holds (≤1 per tile row), relying on XOR parity for reconstruction.
	WriteBack bool
	// MinWorkers is the fleet size below which the coordinator degrades to
	// executing ready tasks locally instead of waiting.
	MinWorkers int
	// WaitWorkers, when positive, holds task leasing until that many
	// workers have registered.
	WaitWorkers int
	// Lease and DeadAfter override the task-lease duration and the
	// heartbeat-silence eviction deadline.
	Lease, DeadAfter time.Duration
	// Speculate arms straggler mitigation: a lease running long against
	// the learned duration distribution of its kernel kind is twinned onto
	// an idle worker, and the first valid commit wins (the loser is
	// absorbed as a duplicate, so the factor is still bitwise identical).
	// Ignored under Strict placement.
	Speculate bool
	// ScrubEvery, when positive, arms the background integrity scrub: the
	// coordinator re-verifies stored tiles against their at-rest CRCs at
	// this interval, repairing detected rot from row parity.
	ScrubEvery time.Duration
	// CheckpointDir, when set, arms checkpoints after every
	// CheckpointEvery-th panel step (minimum 1), placed by the rule the
	// in-process drivers follow: the frontier after the last step is the
	// finished factor and gets none. ResumeDist restarts from them, and
	// Context.Resume reads them too.
	CheckpointDir   string
	CheckpointEvery int
	// Metrics publishes the job's counters to the process-global metrics
	// registry (dist.* names, including per-RPC dist.rpc.* latency and
	// payload histograms), visible on the WithObservability endpoint.
	Metrics bool
	// EventLog, when non-nil, receives one structured log record per
	// cluster fault event: worker evictions and lease reaps at Warn, stale
	// commits and injected wire faults at Info.
	EventLog *slog.Logger
}

func (cfg DistConfig) options(a *tile.Matrix[float64]) dist.Options {
	opt := dist.Options{
		Op:          cfg.Op,
		A:           a,
		GridP:       cfg.GridP,
		GridQ:       cfg.GridQ,
		Strict:      cfg.Strict,
		WriteBack:   cfg.WriteBack,
		MinWorkers:  cfg.MinWorkers,
		WaitWorkers: cfg.WaitWorkers,
		Lease:       cfg.Lease,
		DeadAfter:   cfg.DeadAfter,
		Speculate:   cfg.Speculate,
		ScrubEvery:  cfg.ScrubEvery,
	}
	if cfg.CheckpointDir != "" {
		opt.Ckpt = &core.CkptOptions{Dir: cfg.CheckpointDir, Every: cfg.CheckpointEvery}
	}
	if cfg.Metrics {
		metrics.Enable()
		opt.Registry = metrics.Default()
	}
	if cfg.EventLog != nil {
		opt.Events = obs.DistLogger(cfg.EventLog)
	}
	return opt
}

// DistJob is a coordinator serving one distributed factorization.
type DistJob struct {
	c *dist.Coordinator
}

// ServeDist starts a coordinator on addr (host:port; port 0 picks one —
// see Addr) for the factorization of the square matrix a. Workers join
// with JoinDist; Run blocks until the factor is complete.
func ServeDist(addr string, a *Matrix, cfg DistConfig) (*DistJob, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("exadla: ServeDist needs a square matrix, got %d×%d", a.rows, a.cols)
	}
	nb := cfg.TileSize
	if nb <= 0 {
		nb = DefaultTileSize
	}
	if cfg.Op == "" {
		cfg.Op = DistCholesky
	}
	opt := cfg.options(tile.FromColMajor(a.rows, a.cols, a.data, a.rows, nb))
	c, err := dist.NewCoordinator(addr, opt)
	if err != nil {
		return nil, err
	}
	return &DistJob{c: c}, nil
}

// ResumeDist starts a coordinator that restarts the factorization
// recorded in cfg.CheckpointDir from its newest valid snapshot, with the
// snapshot's op when cfg.Op is empty; an Op the snapshot contradicts is an
// error wrapping ErrDistCheckpointOp. The resumed run finishes bitwise
// identical to an uninterrupted one.
func ResumeDist(addr string, cfg DistConfig) (*DistJob, error) {
	if cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("exadla: ResumeDist needs DistConfig.CheckpointDir")
	}
	opt := cfg.options(nil)
	opt.Resume = true
	c, err := dist.NewCoordinator(addr, opt)
	if err != nil {
		return nil, err
	}
	return &DistJob{c: c}, nil
}

// Addr returns the coordinator's listen address (with the concrete port
// when ServeDist was given port 0) — hand it to JoinDist.
func (j *DistJob) Addr() string { return j.c.Addr() }

// Run serves workers until the factorization completes and returns the
// factor (lower Cholesky factor, or the packed L\U of the no-pivot LU).
// With no workers and MinWorkers 0 the coordinator computes everything
// itself — a distributed job degrades to a local one rather than hanging.
func (j *DistJob) Run() (*Matrix, error) {
	if err := j.c.Run(); err != nil {
		return nil, err
	}
	r := j.c.Result()
	return FromSlice(r.M, r.N, r.ToColMajor()), nil
}

// Stats snapshots the job's counters (workers joined/lost, leases
// expired, commits rejected, bytes moved, tiles reconstructed, …). Safe
// to call concurrently with Run.
func (j *DistJob) Stats() DistStats { return j.c.Stats() }

// Status snapshots the live cluster state: every registered worker with
// its heartbeat age, clock-offset estimate, and span-shipping progress,
// the outstanding lease table, and the eviction log. Safe to call
// concurrently with Run.
func (j *DistJob) Status() DistStatus { return j.c.Status() }

// WriteClusterTrace writes the merged multi-process trace as Chrome
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev), through the
// same writer as an in-process trace: one process lane per OS process (the
// coordinator plus each worker), lease-lifecycle slices with fetch/compute/
// commit sub-phases, dependence flows between tasks, flow arrows from a
// tile's commit to its dependent fetches, and fault instants (evictions,
// lease reaps, stale commits, injected wire faults). Worker timestamps are
// aligned onto the coordinator's clock by each process's best RTT-midpoint
// offset sample. Callable mid-run (a partial trace) or after Run.
func (j *DistJob) WriteClusterTrace(w io.Writer) error {
	return j.c.ClusterLog().WriteChrome(w)
}

// WriteClusterEvents writes the merged multi-process trace in the native
// events format, re-loadable by trace.ReadJSON and summarizable by the
// exatrace -cluster command.
func (j *DistJob) WriteClusterEvents(w io.Writer) error {
	return j.c.ClusterLog().WriteJSON(w)
}

// ServeObs starts the observability HTTP server for this job on addr
// (host:port; port 0 picks one — read it back from Server.Addr). On top of
// the standard endpoints, /dist serves the live cluster status as JSON,
// /trace serves the merged multi-process trace (add ?format=events for the
// native form), and /healthz reports the live fleet: workers currently
// alive, their heartbeat ages, and how many have been evicted — not a
// static count. Close the returned server when done.
func (j *DistJob) ServeObs(addr string) (*obs.Server, error) {
	metrics.Enable()
	return obs.Start(addr, obs.Options{
		Registry: metrics.Default(),
		Trace:    j.c.ClusterLog,
		Dist:     func() any { return j.c.Status() },
		Health: func() map[string]any {
			st := j.c.Status()
			beats := make(map[string]any, len(st.Workers))
			for _, w := range st.Workers {
				if w.Live {
					beats[fmt.Sprintf("w%d", w.ID)] = w.LastBeatMS
				}
			}
			return map[string]any{
				"workers_live":       st.WorkersLive,
				"workers_evicted":    len(st.Evictions),
				"heartbeat_ages_ms":  beats,
				"tasks_completed":    st.Completed,
				"tasks_total":        st.Tasks,
				"done":               st.Done,
				"leases_outstanding": len(st.Leases),
			}
		},
	})
}

// JoinDist runs one worker against the coordinator at addr until the job
// completes (nil) or the coordinator becomes unreachable. The worker is
// stateless: kill -9 it at any point and the job still finishes with the
// identical factor. chaos injects seeded wire faults for testing; pass
// the zero value for a well-behaved worker.
func JoinDist(addr string, chaos DistChaos) error {
	return dist.RunWorker(addr, dist.WorkerOptions{Chaos: chaos})
}
