package main

// perLayer lists every per-layer metric, in BENCHMARK.json order. Probe
// metrics (machine and kernel capability) are measured the same way in
// every traced run. The mixed, dist and serve layers are measured on the
// workload that owns them (layerOwners): on its traced pass when it is the
// traced workload, otherwise on a short pass of it, so that no timing ever
// reads a constant 0. The rest describe the traced workload and read 0 where
// it never enters that layer.
var perLayer = []metricDef{
	{name: "host.cpus", unit: "count", better: "higher"},
	{name: "host.gomaxprocs", unit: "count", better: "higher"},
	{name: "host.copy_gbs", unit: "GB/s", better: "higher"},

	{name: "blas.gemm.gflops_nb", unit: "GF/s", better: "higher"},
	{name: "blas.gemm.gflops_1024", unit: "GF/s", better: "higher"},
	{name: "blas.gemm.nb_over_1024", unit: "ratio", better: "higher"},
	{name: "blas.syrk.gflops_nb", unit: "GF/s", better: "higher"},
	{name: "blas.trsm.gflops_nb", unit: "GF/s", better: "higher"},
	{name: "blas.gemm32.gflops_512", unit: "GF/s", better: "higher"},

	{name: "lapack.potrf.gflops", unit: "GF/s", better: "higher"},
	{name: "lapack.getrf.gflops", unit: "GF/s", better: "higher"},
	{name: "lapack.geqrf.gflops", unit: "GF/s", better: "higher"},
	{name: "lapack.potrf32.gflops", unit: "GF/s", better: "higher"},

	{name: "tile.from_colmajor.gbs", unit: "GB/s", better: "higher"},
	{name: "tile.to_colmajor.gbs", unit: "GB/s", better: "higher"},
	{name: "tile.convert_share", unit: "ratio", better: "lower"},

	{name: "sched.task_overhead_us", unit: "us", better: "lower"},
	{name: "sched.busy_share", unit: "ratio", better: "higher"},
	{name: "sched.dag_bound", unit: "ratio", better: "higher"},
	{name: "sched.scaling_eff", unit: "ratio", better: "higher"},

	{name: "core.factor_gflops", unit: "GF/s", better: "higher"},
	{name: "core.tiled_over_serial", unit: "ratio", better: "higher"},
	{name: "core.panel_share", unit: "ratio", better: "lower"},
	{name: "core.trsm.ms_n512", unit: "ms", better: "lower"},

	{name: "exadla.gflops", unit: "GF/s", better: "higher"},
	{name: "exadla.api_gap_share", unit: "ratio", better: "lower"},

	{name: "mixed.factor32_ms", unit: "ms", better: "lower"},
	{name: "mixed.refine_iters", unit: "count", better: "lower"},
	{name: "mixed.over_f64", unit: "ratio", better: "lower"},
	{name: "mixed.fallback_share", unit: "ratio", better: "lower"},
	{name: "mixed.berr_max", unit: "ratio", better: "lower"},

	{name: "batch.potrf.problems_per_s", unit: "1/s", better: "higher"},
	{name: "batch.potrf.over_seq", unit: "ratio", better: "higher"},

	{name: "ft.abft_overhead_share", unit: "ratio", better: "lower"},
	{name: "ft.erasure_overhead_share", unit: "ratio", better: "lower"},
	{name: "ckpt.overhead_share", unit: "ratio", better: "lower"},
	{name: "ckpt.save_mbs", unit: "MB/s", better: "higher"},

	{name: "dist.setup_ms", unit: "ms", better: "lower"},
	{name: "dist.makespan_over_local", unit: "ratio", better: "lower"},
	{name: "dist.scaling_eff", unit: "ratio", better: "higher"},
	{name: "dist.bytes_fetched_per_op", unit: "B", better: "lower"},
	{name: "dist.bytes_committed_per_op", unit: "B", better: "lower"},
	{name: "dist.bytes_over_model", unit: "ratio", better: "lower"},
	{name: "dist.rpc.lease_mean_us", unit: "us", better: "lower"},
	{name: "dist.rpc.get_mean_us", unit: "us", better: "lower"},
	{name: "dist.rpc.commit_mean_us", unit: "us", better: "lower"},
	{name: "dist.worker_compute_share", unit: "ratio", better: "higher"},
	{name: "dist.worker_fetch_share", unit: "ratio", better: "lower"},
	{name: "dist.worker_idle_share", unit: "ratio", better: "lower"},
	{name: "dist.tasks_local_share", unit: "ratio", better: "lower"},
	{name: "dist.leases_expired", unit: "count", better: "lower"},
	{name: "dist.rpc_retries", unit: "count", better: "lower"},
	{name: "dist.lu_nopiv.makespan_ms", unit: "ms", better: "lower"},
	{name: "dist.kill_recovery_ms", unit: "ms", better: "lower"},

	{name: "serve.http.submit_ms.tiny", unit: "ms", better: "lower"},
	{name: "serve.http.submit_ms.warm", unit: "ms", better: "lower"},
	{name: "serve.http.submit_ms.cold", unit: "ms", better: "lower"},
	{name: "serve.http.decode_json_mbs", unit: "MB/s", better: "higher"},
	{name: "serve.http.decode_raw_mbs", unit: "MB/s", better: "higher"},
	{name: "serve.http.result_ms", unit: "ms", better: "lower"},
	{name: "serve.inproc_p50_ms.warm", unit: "ms", better: "lower"},
	{name: "serve.queue_wait_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.queue_wait_tail_ms", unit: "ms", better: "lower"},
	{name: "serve.run_p50_ms.tiny", unit: "ms", better: "lower"},
	{name: "serve.run_p50_ms.warm", unit: "ms", better: "lower"},
	{name: "serve.run_p50_ms.cold", unit: "ms", better: "lower"},
	{name: "serve.lane_busy_share", unit: "ratio", better: "lower"},
	{name: "serve.hol_delayed_share", unit: "ratio", better: "lower"},
	{name: "serve.cache.hit_share", unit: "ratio", better: "higher"},
	{name: "serve.cache.evictions", unit: "count", better: "lower"},
	{name: "serve.batch.mean_size", unit: "count", better: "higher"},
	{name: "serve.batch.flushes", unit: "count", better: "lower"},
	{name: "serve.shed_share", unit: "ratio", better: "lower"},

	{name: "loadgen.late_tail_ms", unit: "ms", better: "lower"},
	{name: "obs.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "proc.rss_mb", unit: "MB", better: "lower"},
	{name: "proc.alloc_mb_per_op", unit: "MB", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
}

// layerOwners names, for each layer only some workloads enter, the workload
// its metrics are measured on and the length of the short pass taken when
// another workload is being traced.
var layerOwners = []struct {
	workload string
	prefixes []string
	count    int // foreground operations of the short pass, all traced
}{
	{"mixed_spd", []string{"mixed."}, 3},
	{"dist_chol", []string{"dist."}, 3},
	{"serve_mixed", []string{"serve.", "loadgen."}, 150}, // 0.6 s: holds one background pair
}
