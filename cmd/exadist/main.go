// Command exadist runs the multi-process distributed runtime from the
// shell: one -serve process owns the task DAG and the tile object store,
// any number of -join processes pull tasks from it over net/rpc. Workers
// are stateless and disposable — kill -9 one mid-run and the coordinator
// reaps its lease, re-executes the lost work, and finishes with the same
// bits. The -verify flag proves it by comparing against a single-process
// factorization.
//
// A three-terminal demo:
//
//	exadist -serve 127.0.0.1:7000 -n 2048 -workers 3 -verify
//	exadist -join 127.0.0.1:7000
//	exadist -join 127.0.0.1:7000   # kill -9 this one; the job still finishes
//
// Fault hooks for the -join side (-kill-after, -hang-after, -drop, -dup,
// -delay, -corrupt, -partition-after/-partition-for, -slow) make the
// chaos reproducible from the command line; -spec and -scrub on the
// serve side arm the defenses (speculative twin leases, at-rest CRC
// scrubbing).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"time"

	"exadla"
	"exadla/internal/dist"
	"exadla/internal/obs"
	"exadla/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "exadist:", err)
		os.Exit(1)
	}
}

// run parses args and runs one coordinator (-serve) or worker (-join),
// writing its report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exadist", flag.ContinueOnError)
	serve := fs.String("serve", "", "serve a coordinator on this host:port")
	join := fs.String("join", "", "join the coordinator at this host:port as a worker")

	// Serve-side flags.
	op := fs.String("op", "", "operation: cholesky (default) or lunp (LU without pivoting); with -resume, the checkpoint's by default")
	n := fs.Int("n", 1024, "matrix order")
	nb := fs.Int("nb", exadla.DefaultTileSize, "tile size")
	seed := fs.Int64("seed", 1, "matrix generator seed")
	minWorkers := fs.Int("min-workers", 0, "fleet size below which the coordinator computes locally")
	waitWorkers := fs.Int("wait-workers", 0, "hold task leasing until this many workers registered")
	gridP := fs.Int("grid-p", 0, "process grid rows (with -strict)")
	gridQ := fs.Int("grid-q", 0, "process grid columns (with -strict)")
	strict := fs.Bool("strict", false, "strict owner-computes placement (byte-exact vs the replay cost model)")
	writeBack := fs.Bool("writeback", false, "write-back residency: drop finalized tiles to worker caches, keep XOR parity")
	lease := fs.Duration("lease", 2*time.Second, "task lease duration")
	deadAfter := fs.Duration("dead-after", 1500*time.Millisecond, "heartbeat silence before a worker is declared dead")
	spec := fs.Bool("spec", false, "speculative execution: twin leases running long vs their kernel's duration history onto idle workers")
	scrub := fs.Duration("scrub", 0, "background integrity scrub interval (0 disables); repairs at-rest tile rot from row parity")
	ckptDir := fs.String("ckpt", "", "checkpoint directory (arms snapshots; use -resume to restart)")
	ckptEvery := fs.Int("ckpt-every", 1, "checkpoint after every Nth panel step, placed as the in-process drivers place them (none after the last step)")
	resume := fs.Bool("resume", false, "resume from the newest checkpoint in -ckpt instead of starting fresh")
	verify := fs.Bool("verify", false, "after the run, factor the same matrix single-process and compare bitwise")
	obsAddr := fs.String("obs", "", "serve live observability on this host:port (serve side: /metrics, /dist, /trace of the merged cluster; join side: /healthz, /trace of the worker mirror, pprof)")
	traceOut := fs.String("trace-out", "", "after the run, write the merged cluster trace (Chrome/Perfetto JSON) here")
	eventsOut := fs.String("events-out", "", "after the run, write the merged cluster trace in the native events format (for exatrace -cluster) here")
	logEvents := fs.Bool("log-events", false, "log structured cluster fault events (evictions, reaps, stale commits, wire chaos) to stderr")

	// Join-side fault hooks.
	killAfter := fs.Int("kill-after", 0, "exit(137) upon being granted the Nth task (simulated SIGKILL)")
	hangAfter := fs.Int("hang-after", 0, "hang upon the Nth granted task, heartbeats still flowing")
	hangFor := fs.Duration("hang-for", 3*time.Second, "hang duration for -hang-after")
	drop := fs.Float64("drop", 0, "probability of dropping an RPC request or reply")
	dup := fs.Float64("dup", 0, "probability of duplicating an RPC")
	delay := fs.Float64("delay", 0, "probability of delaying an RPC by -max-delay")
	maxDelay := fs.Duration("max-delay", 5*time.Millisecond, "injected RPC latency")
	corrupt := fs.Float64("corrupt", 0, "probability of flipping one payload bit in a tile in flight")
	partAfter := fs.Duration("partition-after", 0, "silence every RPC starting this long after the worker connects")
	partFor := fs.Duration("partition-for", 0, "partition window length; the worker rejoins when it closes")
	slow := fs.Float64("slow", 0, "straggler factor: pad every kernel to this multiple of its measured duration")
	rejoinWindow := fs.Duration("rejoin-window", 0, "keep re-registering after losing the coordinator for this long (default: derived from the partition window)")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed for the wire-fault injector")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	switch {
	case *serve != "" && *join != "":
		return errors.New("-serve and -join are mutually exclusive")
	case *join != "":
		opt := dist.WorkerOptions{
			Chaos: dist.NetChaos{
				DropSend:       *drop,
				DropReply:      *drop,
				Dup:            *dup,
				Delay:          *delay,
				MaxDelay:       *maxDelay,
				Corrupt:        *corrupt,
				PartitionAfter: *partAfter,
				PartitionFor:   *partFor,
				Seed:           *chaosSeed,
			},
			KillAfter:    *killAfter,
			ExitOnKill:   true,
			HangAfter:    *hangAfter,
			HangFor:      *hangFor,
			SlowFactor:   *slow,
			RejoinWindow: *rejoinWindow,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}
		if *obsAddr != "" {
			// A worker's obs server is minimal: /healthz + pprof, plus the
			// worker-local span mirror on /trace (the merged cluster view
			// lives on the coordinator).
			tl := trace.NewLog()
			opt.Trace = tl
			srv, err := obs.Start(*obsAddr, obs.Options{Trace: func() *trace.Log { return tl }})
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "worker observability on http://%s/healthz\n", srv.Addr())
		}
		if err := dist.RunWorker(*join, opt); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "exadist: job complete, worker done")
		return nil
	case *serve != "":
		return runServe(stdout, *serve, serveConfig{
			op: *op, n: *n, nb: *nb, seed: *seed,
			minWorkers: *minWorkers, waitWorkers: *waitWorkers,
			gridP: *gridP, gridQ: *gridQ, strict: *strict, writeBack: *writeBack,
			lease: *lease, deadAfter: *deadAfter,
			speculate: *spec, scrubEvery: *scrub,
			ckptDir: *ckptDir, ckptEvery: *ckptEvery, resume: *resume,
			verify: *verify, obsAddr: *obsAddr,
			traceOut: *traceOut, eventsOut: *eventsOut, logEvents: *logEvents,
		})
	}
	fs.Usage()
	return errors.New("one of -serve or -join is required")
}

type serveConfig struct {
	op                      string
	n, nb                   int
	seed                    int64
	minWorkers, waitWorkers int
	gridP, gridQ            int
	strict, writeBack       bool
	lease, deadAfter        time.Duration
	speculate               bool
	scrubEvery              time.Duration
	ckptDir                 string
	ckptEvery               int
	resume                  bool
	verify                  bool
	obsAddr                 string
	traceOut, eventsOut     string
	logEvents               bool
}

func runServe(stdout io.Writer, addr string, cfg serveConfig) error {
	var distOp string // empty with -resume: the checkpoint's
	switch cfg.op {
	case "":
		if !cfg.resume {
			distOp = exadla.DistCholesky
		}
	case "cholesky":
		distOp = exadla.DistCholesky
	case "lunp", "lu-nopiv":
		distOp = exadla.DistLUNoPiv
	default:
		return fmt.Errorf("unknown -op %q (want cholesky or lunp)", cfg.op)
	}

	dcfg := exadla.DistConfig{
		Op: distOp, TileSize: cfg.nb,
		GridP: cfg.gridP, GridQ: cfg.gridQ,
		Strict: cfg.strict, WriteBack: cfg.writeBack,
		MinWorkers: cfg.minWorkers, WaitWorkers: cfg.waitWorkers,
		Lease: cfg.lease, DeadAfter: cfg.deadAfter,
		Speculate: cfg.speculate, ScrubEvery: cfg.scrubEvery,
		CheckpointDir: cfg.ckptDir, CheckpointEvery: cfg.ckptEvery,
		Metrics: cfg.obsAddr != "",
	}
	if cfg.logEvents {
		dcfg.EventLog = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	var job *exadla.DistJob
	var a *exadla.Matrix
	var err error
	if cfg.resume {
		if cfg.ckptDir == "" {
			return fmt.Errorf("-resume needs -ckpt")
		}
		job, err = exadla.ResumeDist(addr, dcfg)
	} else {
		rng := rand.New(rand.NewSource(cfg.seed))
		a = exadla.RandomSPD(rng, cfg.n)
		job, err = exadla.ServeDist(addr, a.Clone(), dcfg)
	}
	if err != nil {
		return err
	}

	if cfg.obsAddr != "" {
		srv, err := job.ServeObs(cfg.obsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "observability on http://%s/metrics /dist /trace\n", srv.Addr())
	}

	st := job.Status()
	fmt.Fprintf(stdout, "coordinator on %s: %s n=%d nb=%d (ctrl-c to abandon)\n", job.Addr(), st.Op, st.N, st.NB)
	t0 := time.Now()
	got, err := job.Run()
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	s := job.Stats()
	fmt.Fprintf(stdout, "done in %v\n", wall)
	fmt.Fprintf(stdout, "  workers: %d joined, %d lost; leases: %d granted, %d expired\n",
		s.WorkersJoined, s.WorkersLost, s.LeasesGranted, s.LeasesExpired)
	fmt.Fprintf(stdout, "  tasks: %d done (%d re-executed, %d local); commits: %d rejected, %d duplicate\n",
		s.TasksCompleted, s.TasksReexecuted, s.TasksLocal, s.CommitsRejected, s.CommitsDuplicate)
	fmt.Fprintf(stdout, "  traffic: %d B fetched, %d B committed, %d B scattered, %d RPC retries\n",
		s.BytesFetched, s.BytesCommitted, s.BytesScattered, s.RPCRetries)
	fmt.Fprintf(stdout, "  recovery: %d tiles reconstructed, %d checkpoints, %d workers rejoined\n",
		s.TilesRebuilt, s.CheckpointsSaved, s.WorkersRejoined)
	if s.SpecLaunched > 0 {
		fmt.Fprintf(stdout, "  speculation: %d twins launched, %d won, %d wasted\n",
			s.SpecLaunched, s.SpecWins, s.SpecWasted)
	}
	if s.CorruptInjected+s.CorruptCommits+s.CorruptGets+s.AtRestDetected > 0 || s.ScrubScanned > 0 {
		fmt.Fprintf(stdout, "  integrity: %d corruptions injected, %d caught at commit, %d caught at fetch; scrub scanned %d tiles, repaired %d/%d rotted\n",
			s.CorruptInjected, s.CorruptCommits, s.CorruptGets, s.ScrubScanned, s.AtRestRepaired, s.AtRestDetected)
	}

	if cfg.traceOut != "" {
		if err := writeFileWith(cfg.traceOut, job.WriteClusterTrace); err != nil {
			return fmt.Errorf("write -trace-out: %w", err)
		}
		fmt.Fprintf(stdout, "  merged cluster trace: %s (load at ui.perfetto.dev)\n", cfg.traceOut)
	}
	if cfg.eventsOut != "" {
		if err := writeFileWith(cfg.eventsOut, job.WriteClusterEvents); err != nil {
			return fmt.Errorf("write -events-out: %w", err)
		}
		fmt.Fprintf(stdout, "  merged cluster events: %s (summarize with exatrace -cluster)\n", cfg.eventsOut)
	}

	if cfg.verify {
		if a == nil {
			fmt.Fprintln(stdout, "verify: skipped (resumed run has no reference input)")
			return nil
		}
		want, err := localFactor(distOp, a, cfg.nb)
		if err != nil {
			return fmt.Errorf("verify reference: %w", err)
		}
		rows, cols := got.Dims()
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				if distOp == exadla.DistCholesky && i < j {
					continue // Cholesky only defines the lower triangle
				}
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
					return fmt.Errorf("verify: element (%d,%d) differs: %v != %v", i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
		fmt.Fprintln(stdout, "verify: bitwise identical to the single-process factorization")
	}
	return nil
}

// writeFileWith creates path and streams write's output into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// localFactor computes the single-process reference factor.
func localFactor(op string, a *exadla.Matrix, nb int) (*exadla.Matrix, error) {
	if op == exadla.DistCholesky {
		ctx := exadla.NewContext(exadla.WithTileSize(nb))
		defer ctx.Close()
		f, err := ctx.Cholesky(a.Clone())
		if err != nil {
			return nil, err
		}
		return f.L(), nil
	}
	// LU without pivoting: run the distributed plan with zero workers — the
	// coordinator degrades to pure local execution of the identical kernels.
	job, err := exadla.ServeDist("127.0.0.1:0", a.Clone(), exadla.DistConfig{
		Op: exadla.DistLUNoPiv, TileSize: nb,
	})
	if err != nil {
		return nil, err
	}
	return job.Run()
}
