package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"exadla"
	"exadla/internal/core"
	"exadla/internal/dist"
	"exadla/internal/metrics"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

// Frozen constants of dist_chol (see README.md for why 768 and not 1024).
const (
	distN       = 768
	distNB      = 128
	distWorkers = 2
	distPool    = 2
)

// distWorkload factors one matrix at a time through the multi-process
// runtime: a coordinator and two workers in this process, talking net/rpc
// over loopback. The operation is ServeDist-to-Run-return.
type distWorkload struct {
	cfg  runConfig
	a    []*exadla.Matrix
	ref  [][]float64 // Context.Cholesky(a).L() at the same tile size
	outs []*exadla.Matrix
}

func newDistWorkload(cfg runConfig) workload { return &distWorkload{cfg: cfg} }

func (w *distWorkload) setUp() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	w.a, w.ref = nil, nil
	ctx := exadla.NewContext(exadla.WithTileSize(distNB))
	defer ctx.Close()
	for i := 0; i < distPool; i++ {
		a := exadla.RandomSPD(rng, distN)
		f, err := ctx.Cholesky(a)
		if err != nil {
			return fmt.Errorf("reference factor: %w", err)
		}
		w.a = append(w.a, a)
		w.ref = append(w.ref, f.L().Data())
	}
	for i := range w.a { // warm-up: listener, rpc and gob type registration
		if _, err := runDistJob(nil, 0, w.a[i], exadla.DistConfig{TileSize: distNB, WaitWorkers: distWorkers}, distWorkers, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *distWorkload) tearDown() {}

// distRun is what one distributed job produced.
type distRun struct {
	total  time.Duration // ServeDist to Run's return: the operation
	setup  time.Duration // … of which ServeDist (tile conversion, listener) and starting the workers
	factor *exadla.Matrix
	job    *exadla.DistJob
}

// runDistJob runs one distributed job to completion with the given number of
// in-process workers. workerOpts, when non-nil, replaces the default
// well-behaved workers (one entry per worker).
func runDistJob(rec *recorder, op int, a *exadla.Matrix, cfg exadla.DistConfig, workers int, workerOpts []dist.WorkerOptions) (distRun, error) {
	root := rec.begin("dist.job", op, -1)
	defer rec.end(root)
	var r distRun
	t := time.Now()
	setup := rec.begin("dist.setup", op, root)
	job, err := exadla.ServeDist("127.0.0.1:0", a, cfg)
	if err != nil {
		return r, err
	}
	r.job = job
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if workerOpts != nil {
				errs[k] = dist.RunWorker(job.Addr(), workerOpts[k])
			} else {
				errs[k] = exadla.JoinDist(job.Addr(), exadla.DistChaos{})
			}
		}(k)
	}
	rec.end(setup)
	r.setup = time.Since(t)
	run := rec.begin("dist.run", op, root)
	l, err := job.Run()
	rec.end(run)
	r.total = time.Since(t)
	wg.Wait() // Run has closed the listener: every worker returns
	if err != nil {
		return r, err
	}
	for _, werr := range errs {
		if werr != nil && !errors.Is(werr, dist.ErrKilled) {
			return r, fmt.Errorf("worker: %w", werr)
		}
	}
	r.factor = l
	return r, nil
}

func (w *distWorkload) measure() (*pass, error) {
	n := w.cfg.count
	p := &pass{fg: make([]opResult, n)}
	w.outs = make([]*exadla.Matrix, n)
	cfg := exadla.DistConfig{TileSize: distNB, WaitWorkers: distWorkers}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r, err := runDistJob(nil, i, w.a[i%distPool], cfg, distWorkers, nil)
		p.fg[i].latencyMs = msOf(r.total)
		if err != nil {
			fmt.Fprintf(os.Stderr, "op %d: %v\n", i, err)
			continue
		}
		w.outs[i] = r.factor
	}
	p.wallS = time.Since(t0).Seconds()
	for i, l := range w.outs {
		p.fg[i].ok = l != nil && lowerBitwiseEqual(distN, l.Data(), w.ref[i%distPool])
		if l != nil && !p.fg[i].ok {
			fmt.Fprintf(os.Stderr, "op %d: factor differs from Context.Cholesky\n", i)
		}
	}
	return p, nil
}

func (w *distWorkload) trace(rec *recorder, _ map[string]float64) (map[string]float64, error) {
	out := map[string]float64{}
	n := w.cfg.traced()
	reg := metrics.Enable()
	defer metrics.Disable()
	reg.Reset()
	cfg := exadla.DistConfig{TileSize: distNB, WaitWorkers: distWorkers, Metrics: true}

	// 1. The traced jobs: spans around setup and run, the job's own counters
	// and its merged cluster log.
	var lat, setups []float64
	var fetched, committed, tasks, local, expired, retries float64
	var compute, fetch, idle, all float64
	for i := 0; i < n; i++ {
		r, err := runDistJob(rec, i, w.a[i%distPool], cfg, distWorkers, nil)
		if err != nil {
			return nil, fmt.Errorf("traced job %d: %w", i, err)
		}
		if !lowerBitwiseEqual(distN, r.factor.Data(), w.ref[i%distPool]) {
			return nil, fmt.Errorf("traced job %d: factor differs from Context.Cholesky", i)
		}
		lat, setups = append(lat, msOf(r.total)), append(setups, msOf(r.setup))
		job := r.job
		st := job.Stats()
		fetched += float64(st.BytesFetched)
		committed += float64(st.BytesCommitted)
		tasks += float64(st.TasksCompleted)
		local += float64(st.TasksLocal)
		expired += float64(st.LeasesExpired)
		retries += float64(st.RPCRetries)
		var buf bytes.Buffer
		if err := job.WriteClusterEvents(&buf); err != nil {
			return nil, err
		}
		lg, err := trace.ReadJSON(&buf)
		if err != nil {
			return nil, fmt.Errorf("cluster log: %w", err)
		}
		for _, pr := range lg.AnalyzeCluster().Procs {
			if pr.Proc == 0 {
				continue // the coordinator lane
			}
			compute += pr.Compute
			fetch += pr.Fetch
			idle += pr.Idle
			all += pr.Compute + pr.Fetch + pr.Commit + pr.Idle
		}
	}
	snap := reg.Snapshot()
	metrics.Disable()
	traced := median(lat)
	out["dist.setup_ms"] = median(setups)
	out["dist.bytes_fetched_per_op"] = fetched / float64(n)
	out["dist.bytes_committed_per_op"] = committed / float64(n)
	out["dist.tasks_local_share"] = local / tasks
	out["dist.leases_expired"] = expired
	out["dist.rpc_retries"] = retries
	if all > 0 {
		out["dist.worker_compute_share"] = compute / all
		out["dist.worker_fetch_share"] = fetch / all
		out["dist.worker_idle_share"] = idle / all
	}
	for _, m := range []string{"lease", "get", "commit"} {
		if h := snap.Histograms["dist.rpc."+m+".ns"]; h.Count > 0 {
			out["dist.rpc."+m+"_mean_us"] = h.Mean / 1e3
		}
	}

	// 2. The same jobs untraced, the local factorization, and one worker.
	plainCfg := exadla.DistConfig{TileSize: distNB, WaitWorkers: distWorkers}
	plain, err := medianMs(n, func() (time.Duration, error) {
		r, err := runDistJob(nil, 0, w.a[0], plainCfg, distWorkers, nil)
		return r.total, err
	})
	if err != nil {
		return nil, err
	}
	out["obs.trace_overhead_share"] = traced/plain - 1
	out["exadla.gflops"] = float64(distN) * distN * distN / 3 / (plain * 1e6)
	localMs, err := medianMs(5, func() (time.Duration, error) {
		ctx := exadla.NewContext(exadla.WithTileSize(distNB))
		defer ctx.Close()
		t := time.Now()
		_, err := ctx.Cholesky(w.a[0])
		return time.Since(t), err
	})
	if err != nil {
		return nil, err
	}
	out["dist.makespan_over_local"] = plain / localMs
	oneCfg := exadla.DistConfig{TileSize: distNB, WaitWorkers: 1}
	one, err := medianMs(3, func() (time.Duration, error) {
		r, err := runDistJob(nil, 0, w.a[0], oneCfg, 1, nil)
		return r.total, err
	})
	if err != nil {
		return nil, err
	}
	out["dist.scaling_eff"] = one / (distWorkers * plain)

	// 3. Strict owner-computes placement on a 2×1 grid: measured fetch bytes
	// over the replay model's 8·Words.
	ref := tile.FromColMajor(distN, distN, w.a[0].Data(), distN, distNB)
	model := sched.NewRecorder()
	if err := core.Cholesky(model, ref); err != nil {
		return nil, err
	}
	words := dist.Count(model.Graph(), distWorkers, dist.BlockCyclic(ref, distWorkers, 1)).Words
	strict := exadla.DistConfig{TileSize: distNB, WaitWorkers: distWorkers, Strict: true, GridP: distWorkers, GridQ: 1}
	sr, err := runDistJob(nil, 0, w.a[0], strict, distWorkers, nil)
	if err != nil {
		return nil, fmt.Errorf("strict job: %w", err)
	}
	if words > 0 {
		out["dist.bytes_over_model"] = float64(sr.job.Stats().BytesFetched) / float64(8*words)
	}

	// 4. The other factorization the runtime offers, and a worker killed
	// mid-job: how much longer the job takes to finish without it.
	luCfg := exadla.DistConfig{Op: exadla.DistLUNoPiv, TileSize: distNB, WaitWorkers: distWorkers}
	lu, err := medianMs(3, func() (time.Duration, error) {
		r, err := runDistJob(nil, 0, w.a[0], luCfg, distWorkers, nil) // SPD and diagonally dominant: pivot-free LU is stable
		return r.total, err
	})
	if err != nil {
		return nil, fmt.Errorf("lu_nopiv job: %w", err)
	}
	out["dist.lu_nopiv.makespan_ms"] = lu
	killCfg := exadla.DistConfig{TileSize: distNB, WaitWorkers: distWorkers, Lease: 200 * time.Millisecond, DeadAfter: 100 * time.Millisecond}
	kr, err := runDistJob(nil, 0, w.a[0], killCfg, distWorkers, []dist.WorkerOptions{{}, {KillAfter: 10}})
	if err != nil {
		return nil, fmt.Errorf("kill job: %w", err)
	}
	if !lowerBitwiseEqual(distN, kr.factor.Data(), w.ref[0]) {
		return nil, fmt.Errorf("kill job: factor differs from Context.Cholesky")
	}
	out["dist.kill_recovery_ms"] = msOf(kr.total) - plain
	return out, nil
}
