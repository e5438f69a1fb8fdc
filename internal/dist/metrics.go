package dist

import (
	"reflect"
	"time"

	"exadla/internal/metrics"
)

// StatsSnapshot is one distributed run's fault-and-traffic ledger, and the
// one place each run counter is named: its field, its JSON tag, and (the
// metric tag) the "dist.*" name it is mirrored under in a metrics.Registry,
// alongside the scheduler's "sched.*" counters, so the obs Prometheus
// endpoint exposes the distributed runtime for free.
type StatsSnapshot struct {
	WorkersJoined    int64 `json:"workers_joined" metric:"dist.workers_joined"`
	WorkersLost      int64 `json:"workers_lost" metric:"dist.workers_lost"`
	LeasesGranted    int64 `json:"leases_granted" metric:"dist.leases_granted"`
	LeasesExpired    int64 `json:"leases_expired" metric:"dist.leases_expired"`
	TasksCompleted   int64 `json:"tasks_completed" metric:"dist.tasks_completed"`
	TasksReexecuted  int64 `json:"tasks_reexecuted" metric:"dist.tasks_reexecuted"`
	TasksLocal       int64 `json:"tasks_local" metric:"dist.tasks_local"`
	CommitsRejected  int64 `json:"commits_rejected" metric:"dist.commits_rejected"`
	CommitsDuplicate int64 `json:"commits_duplicate" metric:"dist.commits_duplicate"`
	RPCRetries       int64 `json:"rpc_retries" metric:"dist.rpc_retries"`
	BytesFetched     int64 `json:"bytes_fetched" metric:"dist.bytes_fetched"`
	BytesCommitted   int64 `json:"bytes_committed" metric:"dist.bytes_committed"`
	BytesScattered   int64 `json:"bytes_scattered" metric:"dist.bytes_scattered"`
	TilesRebuilt     int64 `json:"tiles_reconstructed" metric:"dist.tiles_reconstructed"`
	CheckpointsSaved int64 `json:"checkpoints_written" metric:"dist.checkpoints_written"`

	// Speculative execution: twin leases granted for slow-running tasks,
	// how many twins won (committed first), and how many were wasted work
	// (the primary finished first).
	SpecLaunched int64 `json:"spec_launched" metric:"dist.spec.launched"`
	SpecWins     int64 `json:"spec_wins" metric:"dist.spec.wins"`
	SpecWasted   int64 `json:"spec_wasted" metric:"dist.spec.wasted"`

	// End-to-end integrity: corrupt commit payloads the coordinator
	// rejected, corrupt Get replies workers detected, total corruptions the
	// chaos layer reports injecting, and the at-rest scrub's ledger.
	CorruptCommits  int64 `json:"corrupt_commits_rejected" metric:"dist.integrity.commit_rejected"`
	CorruptGets     int64 `json:"corrupt_gets_detected" metric:"dist.integrity.get_rejected"`
	CorruptInjected int64 `json:"corrupts_injected" metric:"dist.integrity.wire_injected"`
	ScrubScanned    int64 `json:"scrub_tiles_scanned" metric:"dist.integrity.scrub_scanned"`
	AtRestDetected  int64 `json:"atrest_rot_detected" metric:"dist.integrity.atrest_detected"`
	AtRestRepaired  int64 `json:"atrest_rot_repaired" metric:"dist.integrity.atrest_repaired"`

	// Partition tolerance: workers that re-registered under a fresh
	// identity after losing a previous one.
	WorkersRejoined int64 `json:"workers_rejoined" metric:"dist.rejoin.workers"`
}

// ledger is a run's live counters, guarded by the coordinator lock. Each
// add lands in the run's own snapshot and in the field's registry mirror,
// so Stats stays per run even when runs share one registry.
type ledger struct {
	StatsSnapshot
	mirror map[*int64]*metrics.Counter // by field address
}

func newLedger(r *metrics.Registry) *ledger {
	l := &ledger{mirror: map[*int64]*metrics.Counter{}}
	v := reflect.ValueOf(&l.StatsSnapshot).Elem()
	for i := 0; i < v.NumField(); i++ {
		l.mirror[v.Field(i).Addr().Interface().(*int64)] = r.Counter(v.Type().Field(i).Tag.Get("metric"))
	}
	return l
}

// add bumps counter f, a field of l.StatsSnapshot, by d.
func (l *ledger) add(f *int64, d int64) {
	*f += d
	l.mirror[f].Add(d)
}

// distMetrics is the registry's view of a run beyond its counters: the
// live-worker gauge and the per-RPC telemetry — handler latency per method
// ("dist.rpc.<m>.ns"), payload sizes for the data-bearing methods, and the
// distribution of client-retry bursts reported on leases
// ("dist.rpc.retries"). All handles are nil-safe (a nil registry disables
// them).
type distMetrics struct {
	workersLive    *metrics.Gauge
	rpcNS          map[string]*metrics.Histogram
	rpcGetBytes    *metrics.Histogram
	rpcCommitBytes *metrics.Histogram
	rpcRetriesHist *metrics.Histogram
}

// rpcMethods are the coordinator's RPC handler names, each with a
// "dist.rpc.<method>.ns" latency histogram.
var rpcMethods = []string{"register", "lease", "heartbeat", "get", "commit", "bye"}

// timeRPC starts a latency observation for one RPC handler; the returned
// func records it (use with defer). Nil-safe all the way down: with no
// registry the histogram handles are nil and Observe is a no-op.
func (m *distMetrics) timeRPC(method string) func() {
	h := m.rpcNS[method]
	start := time.Now()
	return func() { h.Observe(time.Since(start).Nanoseconds()) }
}

func newDistMetrics(r *metrics.Registry) *distMetrics {
	return &distMetrics{
		workersLive:    r.Gauge("dist.workers_live"),
		rpcNS:          rpcLatencyHists(r),
		rpcGetBytes:    r.Histogram("dist.rpc.get.bytes"),
		rpcCommitBytes: r.Histogram("dist.rpc.commit.bytes"),
		rpcRetriesHist: r.Histogram("dist.rpc.retries"),
	}
}

func rpcLatencyHists(r *metrics.Registry) map[string]*metrics.Histogram {
	hs := make(map[string]*metrics.Histogram, len(rpcMethods))
	for _, m := range rpcMethods {
		hs[m] = r.Histogram("dist.rpc." + m + ".ns")
	}
	return hs
}
