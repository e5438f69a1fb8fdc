package dist

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/rpc"
	"sort"
	"sync"
	"time"

	"exadla/internal/ckpt"
	"exadla/internal/core"
	"exadla/internal/ft"
	"exadla/internal/metrics"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

// The Coordinator is the stateful half of the disaggregated runtime: it
// owns the task DAG (a sched.Frontier), the tile object store, the lease
// table, and the worker registry. Workers own nothing durable — they pull
// a lease, fetch operands, compute, and ship the result back — so any
// worker can die at any point and the only thing lost is time:
//
//   - a task leased to a dead or hung worker is reaped when its lease
//     deadline passes and re-leased elsewhere (capped by nothing: tasks
//     retry until the job finishes or fails deterministically);
//   - a straggler that finally commits after being reaped presents a stale
//     lease token and is rejected, so duplicated work never double-writes;
//   - tiles whose only copy lived on a dead worker (write-back residency)
//     are reconstructed from XOR parity, not recomputed;
//   - if the live worker count falls below the configured minimum the
//     coordinator degrades to executing ready tasks itself — the job never
//     deadlocks, it just stops being distributed;
//   - with checkpointing enabled, each step core's rule checkpoints is
//     followed by a snapshot node in the DAG that reads every tile, so a
//     killed coordinator resumes from the last snapshot
//     bitwise-identically, and a checkpoint of either executor resumes on
//     the other.
//
// Locking is deliberately coarse: one mutex guards the frontier, heaps,
// leases, workers, and store maps, and every RPC handler takes it. Tile
// *data* is written only under that mutex (commit copies, local kernels,
// snapshots), and the DAG guarantees in-flight tasks touch disjoint tiles,
// so workers compute outside any lock while the coordinator stays simple
// enough to reason about under chaos.

// ErrAborted is core's sentinel, which Run returns wrapped when
// Ckpt.AbortAtStep fires (the moral equivalent of kill -9 on the
// coordinator, minus the inconvenience).
var ErrAborted = core.ErrAborted

// ErrCheckpointOp is returned, wrapped, by NewCoordinator when the
// checkpoint it resumes from records another operation than Options.Op.
var ErrCheckpointOp = errors.New("dist: checkpoint holds another operation")

// scrubTilesPerPass bounds how many tiles one background scrub pass
// re-verifies, keeping each pass short under the coordinator lock.
const scrubTilesPerPass = 32

// Options configures a distributed run.
type Options struct {
	// Op is the factorization: OpCholesky or OpLUNoPiv. Resuming, an
	// empty Op is the checkpoint's.
	Op string
	// A is the matrix to factor in place (tile layout). Ignored when Resume
	// finds a checkpoint.
	A *tile.Matrix[float64]
	// GridP×GridQ is the process grid for block-cyclic placement (default
	// 1×1). Grid slots beyond the worker count just sit vacant.
	GridP, GridQ int
	// Strict pins each task to its output tile's block-cyclic home slot
	// (owner computes), and workers cache only home tiles — the placement
	// discipline under which measured traffic must equal the Count replay
	// model. Off, any worker runs any ready task and caches everything.
	Strict bool
	// WriteBack enables erasure write-back residency: finalized tiles may
	// be dropped from the store (the committing worker holds the only
	// copy), at most one per tile row, and are reconstructed from XOR
	// parity on demand or on worker death.
	WriteBack bool
	// MinWorkers is the degradation threshold: when fewer workers are live
	// the coordinator executes ready tasks locally (min 1 — with zero live
	// workers it always eventually makes progress itself).
	MinWorkers int
	// WaitWorkers delays all leasing until that many workers have joined —
	// a start barrier for controlled experiments (do not combine with
	// worker kills below MinWorkers).
	WaitWorkers int
	// Lease is how long a worker holds a task before it is reaped;
	// DeadAfter is the heartbeat silence after which a worker is declared
	// dead; LocalDelay is how long a coordinator that has never seen a
	// worker waits before going local.
	Lease, DeadAfter, LocalDelay time.Duration
	// Poll is the idle re-poll interval handed to workers.
	Poll time.Duration
	// Speculate enables twin leases for stragglers: when a running lease's
	// age exceeds SpecFactor times the SpecQuantile of that kernel's
	// observed lease durations (after SpecMinSamples commits of the kind),
	// an otherwise-idle worker is handed a twin of the task. Whichever copy
	// commits first wins through the lease-token gate; the loser's payload
	// is acknowledged but discarded, so the result stays bitwise identical.
	// Ignored under Strict (twins would break owner-computes placement).
	Speculate      bool
	SpecQuantile   float64 // default 0.95
	SpecFactor     float64 // default 2.0
	SpecMinSamples int     // default 5
	// ScrubEvery enables the background at-rest scrub: each interval the
	// coordinator re-verifies a batch of stored tiles against their CRCs,
	// repairing detected rot from the row parity where possible. Zero
	// disables scrubbing (the read path still verifies on every Get).
	ScrubEvery time.Duration
	// Ckpt, when set, checkpoints the run into Ckpt.Dir after the panel
	// steps core's rule (CkptOptions.After) selects, and aborts it with
	// ErrAborted after Ckpt.AbortAtStep's snapshot — the coordinator-death
	// test hook. Resume restarts from the latest checkpoint in Ckpt.Dir
	// instead of starting from Options.A.
	Ckpt   *core.CkptOptions
	Resume bool
	// Registry mirrors the run counters (nil disables mirroring).
	Registry *metrics.Registry
	// Events, when non-nil, receives every fault instant as it lands in
	// the cluster trace — evictions, lease reaps, stale commits and the
	// rest the coordinator records, on its clock, and each one a worker
	// ships (wire chaos, corrupt payloads, partitions), on the worker's
	// clock with ID -1 and Attempt 0. Phase is the kind (one of the
	// trace.IsFault phases), ID the task or -1, Err the detail. It is the
	// hook obs.DistLogger adapts onto slog. Called with the coordinator
	// lock held: the hook must not call back into the coordinator.
	Events func(trace.Event)
}

func (o *Options) defaults() {
	if o.GridP < 1 {
		o.GridP = 1
	}
	if o.GridQ < 1 {
		o.GridQ = 1
	}
	if o.Lease <= 0 {
		o.Lease = 2 * time.Second
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 1500 * time.Millisecond
	}
	if o.LocalDelay <= 0 {
		o.LocalDelay = 250 * time.Millisecond
	}
	if o.Poll <= 0 {
		o.Poll = 5 * time.Millisecond
	}
	if o.SpecQuantile <= 0 || o.SpecQuantile >= 1 {
		o.SpecQuantile = 0.95
	}
	if o.SpecFactor <= 0 {
		o.SpecFactor = 2.0
	}
	if o.SpecMinSamples < 1 {
		o.SpecMinSamples = 5
	}
}

// lease is one outstanding task assignment.
type lease struct {
	task     int
	worker   int
	token    int64
	deadline time.Time
	// granted is when the lease was handed out — the clock speculation
	// compares against the kernel's historical duration distribution.
	granted time.Time
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id       int
	slot     int
	lastBeat time.Time
	evicted  bool
	byed     bool
}

func (w *workerState) live() bool { return !w.evicted && !w.byed }

// Coordinator runs one distributed factorization. Create with
// NewCoordinator (which binds the listener, so workers can join
// immediately), then call Run.
type Coordinator struct {
	opt Options
	ln  net.Listener
	srv *rpc.Server

	mu    sync.Mutex
	a     *tile.Matrix[float64]
	st    *store
	pl    *plan
	fr    *sched.Frontier
	heaps []sched.Ready[int] // ready task IDs per grid slot when Strict, else heaps[0]
	// The frontier's snapshot nodes have the IDs from len(pl.tasks) on, in
	// step order: snapStep[id-len(pl.tasks)] is the panel step a node's
	// checkpoint follows. cuts holds the nodes made ready but not yet cut.
	snapStep []int
	cuts     []int
	leases   map[int]*lease
	attempts map[int]int
	workers  map[int]*workerState
	// Speculative execution: twins holds the second lease of each task
	// running twice, specQ the straggler tasks waiting for an idle worker
	// to twin them, and specPending marks queued tasks so the straggler
	// scan enqueues each at most once per twin generation. specHist feeds
	// per-kernel lease-duration histograms in specReg — a private,
	// always-on registry, so speculation has its signal even when the user
	// configured no Options.Registry.
	twins       map[int]*lease
	specQ       []int
	specPending map[int]bool
	specReg     *metrics.Registry
	specHist    map[string]*metrics.Histogram
	lastScrub   time.Time
	slots       []int // occupant worker id per grid slot, -1 vacant
	nextWorker  int
	nextToken   int64
	everJoined  bool
	// barrierMet latches once WaitWorkers workers were live simultaneously;
	// until then neither leasing nor local fallback may start (the barrier
	// exists to pin placement, e.g. for strict-mode byte accounting).
	barrierMet bool
	started    time.Time
	done       bool
	failErr    error

	// Cluster-trace state: the coordinator's trace epoch, its own events
	// (local execution spans, fault instants), the raw span shards shipped
	// by workers, the cumulative span count absorbed per shipper
	// (exactly-once absorption), and the best clock-offset/RTT sample per
	// shipper. All four maps are keyed by the shipper's lineage ROOT — the
	// registration id of the process's first identity — because a span
	// shipper (and its cumulative index and clock) lives for the worker
	// process, across evictions and rejoins. Keying by root keeps
	// absorption exactly-once even when a batch shipped under an old
	// identity races a re-registration.
	epoch    time.Time
	cevents  []trace.Event
	lineage  map[int]int
	shards   map[int][]trace.Event
	absorbed map[int]int64
	offs     map[int]int64
	offRTTs  map[int]int64
	taskDeps [][]int

	stats *ledger
	m     *distMetrics
	wake  chan struct{}
}

// NewCoordinator binds a listener on addr (e.g. "127.0.0.1:0"), loads or
// plans the job, and starts serving registrations. Run drives it to
// completion.
func NewCoordinator(addr string, opt Options) (*Coordinator, error) {
	opt.defaults()
	c := &Coordinator{
		opt:         opt,
		leases:      map[int]*lease{},
		attempts:    map[int]int{},
		workers:     map[int]*workerState{},
		twins:       map[int]*lease{},
		specPending: map[int]bool{},
		specReg:     metrics.New(),
		specHist:    map[string]*metrics.Histogram{},
		wake:        make(chan struct{}, 1),
		epoch:       time.Now(),
		lineage:     map[int]int{},
		shards:      map[int][]trace.Event{},
		absorbed:    map[int]int64{},
		offs:        map[int]int64{},
		offRTTs:     map[int]int64{},
	}
	c.m = newDistMetrics(opt.Registry)
	c.stats = newLedger(opt.Registry)

	a, fromStep, err := c.initialState()
	if err != nil {
		return nil, err
	}
	if a == nil {
		return nil, errors.New("dist: no matrix (Options.A nil and no checkpoint to resume)")
	}
	if a.M != a.N {
		return nil, fmt.Errorf("dist: need a square matrix, got %d×%d", a.M, a.N)
	}
	if c.opt.Op != OpCholesky && c.opt.Op != OpLUNoPiv {
		return nil, fmt.Errorf("dist: unknown op %q", c.opt.Op)
	}
	c.a = a
	c.pl = makePlan(c.opt.Op, a.NT, fromStep)
	c.st = newStore(a, opt.WriteBack, func() { c.stats.add(&c.stats.TilesRebuilt, 1) })
	// Store callbacks run under c.mu (the coordinator serializes all store
	// access), so recording fault instants here is safe.
	c.st.onRotDetect = func(i, j int) {
		c.stats.add(&c.stats.AtRestDetected, 1)
		c.faultLocked(trace.PhaseCorrupt, -1, -1, 0, fmt.Sprintf("at-rest rot in tile (%d,%d)", i, j))
	}
	c.st.onRotRepair = func(i, j int) {
		c.stats.add(&c.stats.AtRestRepaired, 1)
	}

	nslots := 1
	if opt.Strict {
		nslots = opt.GridP * opt.GridQ
	}
	c.heaps = make([]sched.Ready[int], nslots)
	c.slots = make([]int, opt.GridP*opt.GridQ)
	for i := range c.slots {
		c.slots[i] = -1
	}

	c.fr = sched.NewFrontier(c.readyLocked)
	c.taskDeps = make([][]int, len(c.pl.tasks))
	for i := range c.pl.tasks {
		t := &c.pl.tasks[i]
		r, w := t.Accesses()
		c.taskDeps[t.ID] = c.fr.Add(t.ID, coordHandles(r), coordHandles(w))
		if i == len(c.pl.tasks)-1 || c.pl.tasks[i+1].K != t.K {
			c.addSnapshot(t.K)
		}
	}
	if c.fr.Done() {
		// A resumed checkpoint can cover the whole factorization: the job is
		// born complete and Run only gathers the result.
		c.done = true
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.ln = ln
	c.srv = rpc.NewServer()
	if err := c.srv.RegisterName(coordService, &coordRPC{c}); err != nil {
		ln.Close()
		return nil, err
	}
	go c.accept()
	return c, nil
}

// initialState picks the starting matrix and panel step: the latest
// checkpoint when resuming, rebuilt by core.Restore, with its op when
// Options.Op is empty; Options.A otherwise.
func (c *Coordinator) initialState() (*tile.Matrix[float64], int, error) {
	if !c.opt.Resume || c.opt.Ckpt == nil {
		return c.opt.A, 0, nil
	}
	snap, path, err := ckpt.Latest(c.opt.Ckpt.Dir)
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return c.opt.A, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	op, a, _, err := core.Restore(snap)
	if err != nil {
		return nil, 0, fmt.Errorf("dist: %s: %w", path, err)
	}
	if c.opt.Op == "" {
		c.opt.Op = op
	}
	if op != c.opt.Op {
		return nil, 0, fmt.Errorf("%w: %s is %s, want %s", ErrCheckpointOp, path, op, c.opt.Op)
	}
	return a, snap.Step, nil
}

// addSnapshot adds the snapshot node of panel step k to the frontier when
// core's rule checkpoints there. The node reads every tile, so the
// dependence rule orders it after the last writers of steps ≤ k and before
// every later writer, as it orders the in-process ckpt task.
func (c *Coordinator) addSnapshot(k int) {
	if c.opt.Ckpt == nil {
		return
	}
	if snapshot, _ := c.opt.Ckpt.After(k, c.pl.steps); !snapshot {
		return
	}
	all := make([]sched.Handle, 0, c.a.MT*c.a.NT)
	for j := 0; j < c.a.NT; j++ {
		for i := 0; i < c.a.MT; i++ {
			all = append(all, coord{i, j})
		}
	}
	id := len(c.pl.tasks) + len(c.snapStep)
	c.snapStep = append(c.snapStep, k)
	c.taskDeps = append(c.taskDeps, c.fr.Add(id, all, nil))
}

func coordHandles(cs []coord) []sched.Handle {
	hs := make([]sched.Handle, len(cs))
	for i, c := range cs {
		hs[i] = c
	}
	return hs
}

// Addr returns the listener's address for workers to join.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Result returns the factored matrix (valid after Run returns nil).
func (c *Coordinator) Result() *tile.Matrix[float64] { return c.a }

// Stats returns the run's fault-and-traffic counters.
func (c *Coordinator) Stats() StatsSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.StatsSnapshot
}

// absorbCorruptsLocked lands a worker's piggybacked corruption ledger: how
// many payload corruptions its chaos layer injected and how many corrupt
// Get replies it detected and refetched.
func (c *Coordinator) absorbCorruptsLocked(injected, detected int64) {
	if injected > 0 {
		c.stats.add(&c.stats.CorruptInjected, injected)
	}
	if detected > 0 {
		c.stats.add(&c.stats.CorruptGets, detected)
	}
}

// CorruptStoredTile flips one bit of tile (i,j)'s in-store bytes without
// touching its at-rest CRC — the rot-injection hook integrity tests use to
// exercise the scrub and the verified read path. It fails if the tile's
// bytes are not currently in the store (write-back residency).
func (c *Coordinator) CorruptStoredTile(i, j, elem int, bit uint) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= c.a.MT || j < 0 || j >= c.a.NT {
		return fmt.Errorf("dist: tile (%d,%d) out of range", i, j)
	}
	if w := c.st.resident[i][j]; w >= 0 {
		return fmt.Errorf("dist: tile (%d,%d) bytes are resident on worker %d, not in-store", i, j, w)
	}
	t := c.st.a.Tile(i, j)
	if len(t) == 0 {
		return fmt.Errorf("dist: tile (%d,%d) is empty", i, j)
	}
	e := ((elem % len(t)) + len(t)) % len(t)
	t[e] = math.Float64frombits(math.Float64bits(t[e]) ^ (1 << (bit % 64)))
	return nil
}

func (c *Coordinator) accept() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.srv.ServeConn(conn)
	}
}

func (c *Coordinator) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// readyLocked routes a newly ready task to its heap. A ready snapshot node
// waits in cuts: the Frontier call that readied it must return first.
func (c *Coordinator) readyLocked(id int) {
	if id >= len(c.pl.tasks) {
		c.cuts = append(c.cuts, id)
		return
	}
	c.pushReadyLocked(id)
}

func (c *Coordinator) pushReadyLocked(id int) {
	t := &c.pl.tasks[id]
	slot := 0
	if c.opt.Strict {
		slot = homeSlot(t, c.opt.GridP, c.opt.GridQ)
	}
	// The plan order is the submission order: the ID breaks priority ties.
	c.heaps[slot].Push(id, t.Priority(c.pl.steps), id)
}

// liveCountLocked counts registered, non-evicted, non-departed workers.
func (c *Coordinator) liveCountLocked() int {
	n := 0
	for _, w := range c.workers {
		if w.live() {
			n++
		}
	}
	return n
}

// pickTaskLocked selects the best ready task the asking worker may run:
// its own slot's heap first, then (Strict) heaps of vacant slots — work
// stealing confined to slots nobody owns, so measured traffic matches the
// owner-computes model whenever the grid is fully populated.
func (c *Coordinator) pickTaskLocked(w *workerState) (int, bool) {
	if !c.opt.Strict {
		return c.popBestLocked(nil)
	}
	if w.slot >= 0 && c.heaps[w.slot].Len() > 0 {
		return c.heaps[w.slot].Pop(), true
	}
	return c.popBestLocked(func(s int) bool { return c.slots[s] == -1 })
}

// popBestLocked pops the ready task that runs first across the heaps of
// the slots eligible admits (every slot when eligible is nil).
func (c *Coordinator) popBestLocked(eligible func(slot int) bool) (int, bool) {
	best := -1
	for s := range c.heaps {
		if (eligible == nil || eligible(s)) && (best < 0 || c.heaps[s].Before(&c.heaps[best])) {
			best = s
		}
	}
	if best < 0 || c.heaps[best].Len() == 0 {
		return 0, false
	}
	return c.heaps[best].Pop(), true
}

// completeLocked retires a finished task (committed remotely or executed
// locally), cuts the snapshot nodes its completion made ready, and latches
// completion.
func (c *Coordinator) completeLocked(id int) {
	c.fr.Complete(id)
	c.stats.add(&c.stats.TasksCompleted, 1)
	for len(c.cuts) > 0 && !c.done {
		s := c.cuts[0]
		c.cuts = c.cuts[1:]
		c.cutLocked(s)
	}
	if c.fr.Done() && !c.done {
		c.done = true
		c.signal()
	}
}

// cutLocked saves snapshot node id's checkpoint and retires the node. Every
// task of the steps up to its own has completed and no later one is ready
// (the dependence rule), so the materialized store is exactly the frontier
// after that step. The cut is a ckpt span on the coordinator's lane; at
// the abort step the run then fails with ErrAborted.
func (c *Coordinator) cutLocked(id int) {
	k := c.snapStep[id-len(c.pl.tasks)]
	startNS := c.nowNS()
	err := c.st.materialize()
	if err == nil {
		err = core.SaveCheckpoint(c.opt.Ckpt.Dir, c.opt.Op, c.a, nil, k)
	}
	c.localSpanLocked(id, "ckpt", 1, startNS, err)
	if err != nil {
		c.failLocked(err)
		return
	}
	c.stats.add(&c.stats.CheckpointsSaved, 1)
	if _, abort := c.opt.Ckpt.After(k, c.pl.steps); abort {
		c.failLocked(fmt.Errorf("%w %d", ErrAborted, k))
		return
	}
	c.fr.Complete(id)
}

// failLocked records a deterministic job failure and releases everyone.
func (c *Coordinator) failLocked(err error) {
	if c.failErr == nil {
		c.failErr = err
	}
	c.done = true
	c.signal()
}

// revokeLeaseLocked releases a primary lease. If a speculative twin is
// still running it is promoted to primary — the task stays in flight on
// the healthy worker instead of being re-queued behind the whole frontier.
// Otherwise the task returns to the ready heap.
func (c *Coordinator) revokeLeaseLocked(l *lease) {
	delete(c.leases, l.task)
	c.stats.add(&c.stats.LeasesExpired, 1)
	if tw := c.twins[l.task]; tw != nil {
		c.leases[l.task] = tw
		delete(c.twins, l.task)
		return
	}
	c.pushReadyLocked(l.task)
}

// dropTwinsLocked discards every twin lease held by worker w (its work is
// speculative by definition — the primary still covers the task).
func (c *Coordinator) dropTwinsLocked(w *workerState) {
	for id, tw := range c.twins {
		if tw.worker == w.id {
			delete(c.twins, id)
			c.stats.add(&c.stats.LeasesExpired, 1)
		}
	}
}

// evictLocked declares a worker dead: frees its slot, revokes its leases,
// and reconstructs any tile it held the only copy of.
func (c *Coordinator) evictLocked(w *workerState, reason string) {
	if !w.live() {
		return
	}
	w.evicted = true
	c.stats.add(&c.stats.WorkersLost, 1)
	c.m.workersLive.Set(float64(c.liveCountLocked()))
	c.faultLocked(trace.PhaseEvicted, w.id, -1, 0, reason)
	c.releaseLocked(w)
}

// releaseLocked is the one release path of a departing worker, evicted or
// gone by Bye: it frees the worker's grid slot, revokes its leases, drops
// its twins, reconstructs any tile it held the only copy of, and wakes Run.
func (c *Coordinator) releaseLocked(w *workerState) {
	if w.slot >= 0 {
		c.slots[w.slot] = -1
		w.slot = -1
	}
	var lost []*lease
	for _, l := range c.leases {
		if l.worker == w.id {
			lost = append(lost, l)
		}
	}
	for _, l := range lost {
		c.revokeLeaseLocked(l)
	}
	c.dropTwinsLocked(w)
	if _, err := c.st.dropWorker(w.id); err != nil {
		c.failLocked(err)
	}
	c.signal()
}

// reapLocked enforces deadlines: leases past their deadline are revoked
// (hung worker — it may still be heartbeating, its eventual commit will be
// stale), and workers silent past DeadAfter are evicted wholesale.
func (c *Coordinator) reapLocked(now time.Time) {
	// Collect first: revocation can promote a twin back into c.leases, and
	// mutating a map mid-range may or may not surface the new entry.
	var expired []*lease
	for _, l := range c.leases {
		if now.After(l.deadline) {
			expired = append(expired, l)
		}
	}
	for _, l := range expired {
		c.faultLocked(trace.PhaseReaped, l.worker, l.task, c.attempts[l.task], "lease deadline passed")
		c.revokeLeaseLocked(l)
	}
	for id, tw := range c.twins {
		if now.After(tw.deadline) {
			c.faultLocked(trace.PhaseReaped, tw.worker, id, c.attempts[id], "twin lease deadline passed")
			delete(c.twins, id)
			c.stats.add(&c.stats.LeasesExpired, 1)
		}
	}
	for _, w := range c.workers {
		if w.live() && now.Sub(w.lastBeat) > c.opt.DeadAfter {
			c.evictLocked(w, "heartbeat silence")
		}
	}
}

// speculateLocked scans outstanding leases for stragglers: a lease whose
// age exceeds SpecFactor × the SpecQuantile of its kernel's committed
// lease durations is queued for twinning by the next idle worker. Strict
// mode opts out — a twin runs on a foreign slot, which would falsify the
// owner-computes byte accounting.
func (c *Coordinator) speculateLocked(now time.Time) {
	if !c.opt.Speculate || c.opt.Strict || c.done || len(c.leases) == 0 {
		return
	}
	var snap metrics.Snapshot
	snapped := false
	thr := map[string]time.Duration{}
	var due []int
	for id, l := range c.leases {
		if c.specPending[id] || c.twins[id] != nil {
			continue
		}
		kind := c.pl.tasks[id].Kind
		d, ok := thr[kind]
		if !ok {
			if !snapped {
				snap = c.specReg.Snapshot()
				snapped = true
			}
			h := snap.Histograms["dist.lease."+kind+".ns"]
			if h.Count < int64(c.opt.SpecMinSamples) {
				// No per-kind signal yet; fall back to the all-kinds
				// distribution so the first straggler of a kind is still
				// twinnable once the run as a whole has history.
				h = snap.Histograms["dist.lease.all.ns"]
			}
			if h.Count < int64(c.opt.SpecMinSamples) {
				d = -1 // not enough signal to call anything slow
			} else {
				d = time.Duration(float64(h.Quantile(c.opt.SpecQuantile)) * c.opt.SpecFactor)
				if d < time.Millisecond {
					d = time.Millisecond
				}
			}
			thr[kind] = d
		}
		if d > 0 && now.Sub(l.granted) >= d {
			due = append(due, id)
		}
	}
	sort.Ints(due) // map order is random; keep the queue deterministic-ish
	for _, id := range due {
		c.specPending[id] = true
		c.specQ = append(c.specQ, id)
	}
}

// pickSpecLocked pops the next twinnable straggler for worker w: the
// primary lease must still be outstanding and held by someone else.
func (c *Coordinator) pickSpecLocked(w *workerState) (int, bool) {
	for len(c.specQ) > 0 {
		id := c.specQ[0]
		c.specQ = c.specQ[1:]
		l := c.leases[id]
		if l == nil || c.twins[id] != nil || c.fr.Completed(id) {
			delete(c.specPending, id) // stale queue entry
			continue
		}
		if l.worker == w.id {
			// The asker holds the primary; requeue for a different worker.
			c.specQ = append([]int{id}, c.specQ...)
			return 0, false
		}
		delete(c.specPending, id)
		return id, true
	}
	return 0, false
}

// leaseObserveLocked feeds an accepted commit's grant→commit duration into
// the kernel's histogram (and the all-kinds fallback) — the distribution
// speculation thresholds on.
func (c *Coordinator) leaseObserveLocked(kind string, d time.Duration) {
	for _, k := range [2]string{kind, "all"} {
		h := c.specHist[k]
		if h == nil {
			h = c.specReg.Histogram("dist.lease." + k + ".ns")
			c.specHist[k] = h
		}
		h.Observe(d.Nanoseconds())
	}
}

// localStepLocked is the bottom of the degradation ladder: when live
// workers are below the minimum (or none ever joined and LocalDelay has
// passed), the coordinator executes one ready task in-process. Returns
// whether it did.
func (c *Coordinator) localStepLocked(now time.Time) bool {
	if c.done {
		return false
	}
	threshold := c.opt.MinWorkers
	if threshold < 1 {
		threshold = 1
	}
	live := c.liveCountLocked()
	if live >= threshold {
		return false
	}
	if !c.everJoined && now.Sub(c.started) < c.opt.LocalDelay {
		return false
	}
	if c.opt.WaitWorkers > 0 && !c.barrierMet {
		// An explicit start barrier holds local fallback too: stealing tasks
		// before the fleet assembles would scramble the pinned placement.
		return false
	}
	id, ok := c.popBestLocked(nil)
	if !ok {
		return false
	}
	t := &c.pl.tasks[id]
	r, w := t.Accesses()
	for _, cd := range append(r, w...) {
		if c.st.resident[cd[0]][cd[1]] >= 0 {
			if err := c.st.reconstruct(cd); err != nil {
				c.failLocked(err)
				return false
			}
		}
	}
	if c.attempts[id] > 0 {
		c.stats.add(&c.stats.TasksReexecuted, 1)
	}
	c.attempts[id]++
	startNS := c.nowNS()
	if err := core.Apply(t.Step, c.a, nil); err != nil {
		c.localSpanLocked(id, t.Kind, c.attempts[id], startNS, err)
		c.failLocked(err)
		return false
	}
	c.localSpanLocked(id, t.Kind, c.attempts[id], startNS, nil)
	for _, cd := range w {
		c.st.putLocal(cd, c.pl.finalWriter[cd] == id)
	}
	c.stats.add(&c.stats.TasksLocal, 1)
	c.completeLocked(id)
	return true
}

// Run drives the job to completion: serving worker RPCs (already started),
// reaping dead workers and expired leases, degrading to local execution
// when the fleet is too small, and gathering the final matrix. It returns
// nil on success, ErrAborted for the checkpoint-abort hook, or the
// deterministic kernel error that failed the job.
func (c *Coordinator) Run() error {
	c.mu.Lock()
	c.started = time.Now()
	c.lastScrub = c.started
	c.mu.Unlock()

	tick := c.opt.Lease / 4
	if hb := c.opt.DeadAfter / 4; hb < tick {
		tick = hb
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}

	for {
		select {
		case <-time.After(tick):
		case <-c.wake:
		}
		c.mu.Lock()
		now := time.Now()
		c.reapLocked(now)
		c.speculateLocked(now)
		if c.opt.ScrubEvery > 0 && !c.done && now.Sub(c.lastScrub) >= c.opt.ScrubEvery {
			c.stats.add(&c.stats.ScrubScanned, int64(c.st.scrub(scrubTilesPerPass)))
			c.lastScrub = now
		}
		for c.localStepLocked(now) {
		}
		done := c.done
		c.mu.Unlock()
		if done {
			break
		}
	}

	// Grace period: let workers observe Done on their next lease and say
	// Bye, so clean runs end with clean exits on both sides.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		live := c.liveCountLocked()
		c.mu.Unlock()
		if live == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.ln.Close()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failErr == nil {
		if err := c.st.materialize(); err != nil {
			c.failErr = err
		}
	}
	return c.failErr
}

// coordRPC is the net/rpc receiver; every method locks the coordinator.
type coordRPC struct{ c *Coordinator }

// Register admits a worker (new or returning after eviction), assigns a
// grid slot if one is vacant, and hands back the job geometry plus the
// scatter list for strict placement. A worker speaking another wire
// protocol version is refused before it is given an identity.
func (r *coordRPC) Register(args *RegisterArgs, reply *RegisterReply) error {
	c := r.c
	defer c.m.timeRPC("register")()
	if args.Version != protocolVersion {
		return fmt.Errorf("%w: coordinator speaks v%d, worker sent v%d", ErrProtocolVersion, protocolVersion, args.Version)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextWorker
	c.nextWorker++
	if args.Rejoin {
		// A flapping node coming back after eviction: its old identity (and
		// anything leased to it) is gone; it re-enters as a fresh worker.
		c.stats.add(&c.stats.WorkersRejoined, 1)
		c.faultLocked(trace.PhaseRejoin, id, -1, 0, fmt.Sprintf("was worker %d", args.PrevWorker))
		// The returning process keeps its span shipper, whose cumulative
		// indices (and clock) span identities: chain the new id to the old
		// lineage so absorption stays exactly-once even when a batch shipped
		// under the old id is still in flight.
		c.lineage[id] = c.rootLocked(args.PrevWorker)
	}
	w := &workerState{id: id, slot: -1, lastBeat: time.Now()}
	for s := range c.slots {
		if c.slots[s] == -1 {
			c.slots[s] = id
			w.slot = s
			break
		}
	}
	c.workers[id] = w
	c.everJoined = true
	c.stats.add(&c.stats.WorkersJoined, 1)
	c.m.workersLive.Set(float64(c.liveCountLocked()))
	*reply = RegisterReply{
		Worker: id, Slot: w.slot,
		M: c.a.M, N: c.a.N, NB: c.a.NB,
		LeaseMS:     int(c.opt.Lease / time.Millisecond),
		PollMS:      int(c.opt.Poll / time.Millisecond),
		HeartbeatMS: int(c.opt.DeadAfter / (4 * time.Millisecond)),
		CacheRemote: !c.opt.Strict,
		CoordNS:     c.nowNS(),
	}
	if reply.HeartbeatMS < 1 {
		reply.HeartbeatMS = 1
	}
	if c.opt.Strict && w.slot >= 0 {
		for i := 0; i < c.a.MT; i++ {
			for j := 0; j < c.a.NT; j++ {
				if cyclicSlot(i, j, c.opt.GridP, c.opt.GridQ) == w.slot {
					reply.Scatter = append(reply.Scatter, [2]int{i, j})
				}
			}
		}
	}
	return nil
}

// Lease hands one ready task to the worker, or tells it to poll, stop
// (done), or re-register (evicted). Leasing doubles as a heartbeat.
func (r *coordRPC) Lease(args *LeaseArgs, reply *LeaseReply) error {
	c := r.c
	defer c.m.timeRPC("lease")()
	c.mu.Lock()
	defer c.mu.Unlock()
	if args.RPCRetries > 0 {
		c.stats.add(&c.stats.RPCRetries, args.RPCRetries)
		c.m.rpcRetriesHist.Observe(args.RPCRetries)
	}
	c.absorbCorruptsLocked(args.CorruptsInjected, args.CorruptsDetected)
	w := c.workers[args.Worker]
	if w == nil || !w.live() {
		reply.Evicted = true
		return nil
	}
	w.lastBeat = time.Now()
	if c.done {
		reply.Done = true
		return nil
	}
	reply.PollMS = int(c.opt.Poll / time.Millisecond)
	if reply.PollMS < 1 {
		reply.PollMS = 1
	}
	if c.opt.WaitWorkers > 0 && !c.barrierMet {
		if c.liveCountLocked() < c.opt.WaitWorkers {
			return nil
		}
		c.barrierMet = true
	}
	id, ok := c.pickTaskLocked(w)
	spec := false
	if !ok && c.opt.Speculate {
		// No fresh work: offer this idle worker a twin of a straggling lease.
		id, ok = c.pickSpecLocked(w)
		spec = ok
	}
	if !ok {
		return nil
	}
	t := c.pl.tasks[id]
	now := time.Now()
	c.nextToken++
	l := &lease{task: id, worker: w.id, token: c.nextToken, deadline: now.Add(c.opt.Lease), granted: now}
	if spec {
		c.twins[id] = l
		c.stats.add(&c.stats.SpecLaunched, 1)
		prim := c.leases[id]
		c.faultLocked(trace.PhaseSpecTwin, w.id, id, c.attempts[id]+1,
			fmt.Sprintf("twin of worker %d", prim.worker))
	} else {
		c.leases[id] = l
	}
	if c.attempts[id] > 0 {
		c.stats.add(&c.stats.TasksReexecuted, 1)
	}
	c.attempts[id]++
	c.stats.add(&c.stats.LeasesGranted, 1)
	rd, wr := t.Accesses()
	reply.Task = &t
	reply.Token = c.nextToken
	reply.Attempt = c.attempts[id]
	reply.Vers = c.st.versions(append(rd, wr...))
	return nil
}

// Heartbeat keeps a worker live between leases (e.g. during a long
// kernel) and lands the trace-span batch piggybacked on the beat. Spans
// are absorbed even from a worker already declared dead — its recorded
// history is still true history.
func (r *coordRPC) Heartbeat(args *HeartbeatArgs, reply *HeartbeatReply) error {
	c := r.c
	defer c.m.timeRPC("heartbeat")()
	c.mu.Lock()
	defer c.mu.Unlock()
	reply.CoordNS = c.nowNS()
	c.absorbLocked(args.Worker, args.Spans, args.SpanBase, args.OffsetNS, args.RTTNS, args.HasOffset)
	w := c.workers[args.Worker]
	if w == nil || !w.live() {
		reply.Evicted = true
		return nil
	}
	w.lastBeat = time.Now()
	return nil
}

// Get serves one tile (reconstructing a dropped resident tile first).
func (r *coordRPC) Get(args *GetArgs, reply *GetReply) error {
	c := r.c
	defer c.m.timeRPC("get")()
	c.mu.Lock()
	defer c.mu.Unlock()
	if args.I < 0 || args.I >= c.a.MT || args.J < 0 || args.J >= c.a.NT {
		return fmt.Errorf("dist: tile (%d,%d) out of range", args.I, args.J)
	}
	frame, ver, err := c.st.get(coord{args.I, args.J})
	if err != nil {
		return err
	}
	reply.Frame = frame
	reply.Ver = ver
	n := int64(8 * c.a.TileRows(args.I) * c.a.TileCols(args.J)) // payload bytes
	c.m.rpcGetBytes.Observe(n)
	if args.Scatter {
		c.stats.add(&c.stats.BytesScattered, n)
	} else {
		c.stats.add(&c.stats.BytesFetched, n)
	}
	return nil
}

// Commit atomically lands a task's outputs and marks it complete. The
// lease token is the exactly-once gate: a reaped straggler's token no
// longer matches and its (possibly stale-input) result is discarded; a
// chaos-duplicated commit of a completed task is acknowledged idempotently.
// A commit whose frames are not exactly the task's written tiles, each of
// exactly its tile's shape, is refused with an error before any byte lands.
func (r *coordRPC) Commit(args *CommitArgs, reply *CommitReply) error {
	c := r.c
	defer c.m.timeRPC("commit")()
	// Open the frames before taking the lock: checking their seals is the
	// only per-byte work of a commit, and it needs nothing the lock guards.
	frames := make([]openedFrame, len(args.Tiles))
	for k, b := range args.Tiles {
		o := &frames[k]
		o.Frame, o.payload, o.sum, o.err = ft.OpenFrame(b)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[args.Worker]
	if w == nil || !w.live() {
		reply.Evicted = true
		return nil
	}
	w.lastBeat = time.Now()
	l := c.leases[args.Task]
	tw := c.twins[args.Task]
	var win *lease
	switch {
	case l != nil && l.token == args.Token && l.worker == args.Worker:
		win = l
	case tw != nil && tw.token == args.Token && tw.worker == args.Worker:
		win = tw
	}
	if win == nil {
		if c.fr.Completed(args.Task) {
			// A commit of an already-completed task: a retransmission of one
			// that landed, or the losing copy of a reaped/speculated pair.
			// Acknowledge it so the sender moves on, flag it Duplicate so the
			// sender does not record a completion of its own, and ship no
			// versions — this payload was NOT applied, and blessing the
			// sender's cache with current version numbers would let a stale
			// straggler's bytes masquerade as the store's.
			c.stats.add(&c.stats.CommitsDuplicate, 1)
			reply.Accepted = true
			reply.Duplicate = true
			return nil
		}
		c.stats.add(&c.stats.CommitsRejected, 1)
		c.faultLocked(trace.PhaseStale, args.Worker, args.Task, c.attempts[args.Task], "stale lease token")
		return nil
	}
	// End-to-end integrity, before a single byte is applied. A frame whose
	// seal is broken is one the wire lied about in flight — its bytes or the
	// tile it names; the lease stays live so the worker can resend the same
	// attempt's clean frames. Any other misfit is refused with an error.
	if args.Err == "" {
		err := c.checkFramesLocked(args.Task, frames)
		if errors.Is(err, ft.ErrFrameChecksum) {
			c.stats.add(&c.stats.CorruptCommits, 1)
			c.faultLocked(trace.PhaseCorrupt, args.Worker, args.Task, c.attempts[args.Task], err.Error())
			reply.BadPayload = true
			return nil
		}
		if err != nil {
			return err
		}
	}
	delete(c.leases, args.Task)
	if tw != nil {
		delete(c.twins, args.Task)
		if win == tw {
			c.stats.add(&c.stats.SpecWins, 1)
		} else {
			c.stats.add(&c.stats.SpecWasted, 1)
		}
	}
	delete(c.specPending, args.Task)
	if args.Err != "" {
		c.failLocked(errors.New(args.Err))
		reply.Accepted = true
		return nil
	}
	c.leaseObserveLocked(c.pl.tasks[args.Task].Kind, time.Since(win.granted))
	for _, o := range frames {
		at := coord{o.I, o.J}
		final := c.pl.finalWriter[at] == args.Task
		reply.Vers = append(reply.Vers, c.st.put(at, o.payload, o.sum, args.Worker, final))
		c.stats.add(&c.stats.BytesCommitted, int64(len(o.payload)))
		c.m.rpcCommitBytes.Observe(int64(len(o.payload)))
	}
	reply.Accepted = true
	c.completeLocked(args.Task)
	return nil
}

// openedFrame is one commit frame as ft.OpenFrame returned it.
type openedFrame struct {
	ft.Frame
	payload []byte
	sum     uint64
	err     error
}

// checkFramesLocked validates a leased commit's frames against its task:
// one per written tile, in Step.Accesses order, each sealed and naming
// exactly that tile and its shape. Coordinates are checked against the
// write set, never used to index the store first, so a bad one can neither
// alias another tile nor panic.
func (c *Coordinator) checkFramesLocked(task int, frames []openedFrame) error {
	_, writes := c.pl.tasks[task].Accesses()
	if len(frames) != len(writes) {
		return fmt.Errorf("dist: commit of task %d carries %d tiles, task writes %d", task, len(frames), len(writes))
	}
	for k, o := range frames {
		if o.err != nil {
			return fmt.Errorf("dist: commit of task %d, frame %d: %w", task, k, o.err)
		}
		if w := writes[k]; o.Frame != ft.TileFrame(c.a, w[0], w[1]) {
			return fmt.Errorf("dist: commit of task %d ships %+v, task writes tile (%d,%d)", task, o.Frame, w[0], w[1])
		}
	}
	return nil
}

// Bye deregisters a worker gracefully; tiles resident on it are
// reconstructed into the store before its cache disappears.
func (r *coordRPC) Bye(args *ByeArgs, _ *ByeReply) error {
	c := r.c
	defer c.m.timeRPC("bye")()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.absorbLocked(args.Worker, args.Spans, args.SpanBase, args.OffsetNS, args.RTTNS, args.HasOffset)
	c.absorbCorruptsLocked(args.CorruptsInjected, args.CorruptsDetected)
	w := c.workers[args.Worker]
	if w == nil || !w.live() {
		return nil
	}
	w.byed = true
	c.releaseLocked(w)
	c.m.workersLive.Set(float64(c.liveCountLocked()))
	return nil
}
