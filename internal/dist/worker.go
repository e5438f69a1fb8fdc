package dist

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"exadla/internal/core"
	"exadla/internal/ft"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

// RunWorker is the stateless half of the runtime: a pull loop that holds
// no durable state the job cannot lose. Everything it knows — its id, its
// grid slot, its tile cache — is reconstructable by re-registering, which
// is exactly what it does when the coordinator declares it dead. The fault
// hooks (KillAfter, HangAfter, Chaos) are the process-level mirror of
// sched.WithChaos's hard modes: deterministic, seeded, and aimed at the protocol's
// weakest moments (after a lease is granted, before a commit lands).

// ErrKilled is returned by RunWorker when its KillAfter fault hook fired
// in-process (ExitOnKill=false): the worker vanishes mid-lease without a
// goodbye, leaving the coordinator to notice via heartbeat silence.
var ErrKilled = errors.New("dist: worker killed by fault injection")

// WorkerOptions configures one worker process (or goroutine, in tests).
type WorkerOptions struct {
	// Chaos injects seeded wire faults into every RPC this worker makes.
	Chaos NetChaos
	// KillAfter kills the worker upon being granted its Nth task (1-based):
	// the lease is granted and lost, exercising deadline reaping. With
	// ExitOnKill the whole process exits 137 (SIGKILL's exit code, for the
	// multi-process tests); otherwise RunWorker stops heartbeating and
	// returns ErrKilled (the in-process simulation).
	KillAfter  int
	ExitOnKill bool
	// HangAfter hangs the worker for HangFor upon its Nth granted task,
	// with heartbeats still flowing — the hung-but-alive case. The lease
	// expires, the task is re-run elsewhere, and this worker's late commit
	// must be rejected.
	HangAfter int
	HangFor   time.Duration
	// SlowFactor > 1 makes this worker a straggler: every task attempt is
	// padded to SlowFactor times its measured duration (a 10× worker spends
	// 10× the wall-clock per task — fetch, decode, and compute alike, as a
	// throttled CPU would). The speculation experiments' knob.
	SlowFactor float64
	// RejoinWindow bounds how long a worker that lost the coordinator (every
	// call failing — e.g. a partition silencing its traffic) keeps retrying
	// to re-register before giving up. Zero disables retrying, except that a
	// configured partition window (Chaos.PartitionFor) implies a window long
	// enough to outlive the partition — a flapping node exists to come back.
	RejoinWindow time.Duration
	// Trace, when non-nil, receives a local mirror of every span this
	// worker records (worker-local clock). Spans ship to the coordinator's
	// merged cluster trace regardless.
	Trace *trace.Log
	// Logf, when non-nil, receives progress and fault events.
	Logf func(format string, args ...any)
}

func (o *WorkerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// worker is one registration's state: identity, geometry, and tile cache.
type worker struct {
	cl   *client
	opt  *WorkerOptions
	id   int
	slot int
	a    *tile.Matrix[float64] // local tile cache
	ver  map[coord]int         // cached version per tile (missing = none)
	home map[coord]bool        // tiles scattered to this worker's slot
	// cacheRemote caches fetched remote tiles by version; off under strict
	// placement so every remote read is a measured fetch (the cost-model
	// contract).
	cacheRemote bool
	pollMS      int
	hbStop      chan struct{}
	leased      int // tasks granted so far, drives KillAfter/HangAfter
	sh          *spanShipper
	// cur is the task attempt being executed, annotating fetch spans.
	cur struct {
		id, attempt int
		name        string
	}
}

// rejoinRetryEvery paces re-registration attempts inside the rejoin window.
const rejoinRetryEvery = 50 * time.Millisecond

// RunWorker joins the coordinator at addr and works until the job is done
// (nil), the process is killed (ErrKilled / os.Exit), the coordinator
// refuses this build (ErrProtocolVersion), every copy of a payload arrives
// corrupt (ErrPayloadCorrupt), or the coordinator becomes unreachable
// (error). It re-registers automatically after an eviction, so a worker
// that was merely slow rejoins the fleet with a fresh identity and cache.
func RunWorker(addr string, opt WorkerOptions) error {
	window := opt.RejoinWindow
	if window <= 0 && opt.Chaos.PartitionFor > 0 {
		window = opt.Chaos.PartitionAfter + 2*opt.Chaos.PartitionFor + 5*time.Second
	}
	rejoinUntil := time.Now().Add(window)
	// rejoinable reports whether err is worth re-registering over: a lost
	// coordinator inside the rejoin window, not a fault no new identity cures.
	rejoinable := func(err error) bool {
		return window > 0 && time.Now().Before(rejoinUntil) && !errors.Is(err, ErrKilled) &&
			!errors.Is(err, ErrProtocolVersion) && !errors.Is(err, ErrPayloadCorrupt)
	}
	cl, err := dial(addr, opt.Chaos)
	if err != nil {
		return err
	}
	defer cl.close()
	sh := newSpanShipper(opt.Trace)
	cl.onChaos = func(kind string) {
		switch {
		case strings.HasPrefix(kind, "partition"):
			sh.instant(trace.PhasePartition, kind)
		case strings.HasPrefix(kind, "corrupt"):
			sh.instant(trace.PhaseCorrupt, kind)
		default:
			sh.instant(trace.PhaseChaos, kind)
		}
	}
	leased := 0
	prev := -1 // previous identity, announced on rejoin
	for {
		w, err := register(cl, sh, &opt, prev)
		if err != nil {
			if rejoinable(err) {
				opt.logf("dist: register failed (%v), retrying within rejoin window", err)
				time.Sleep(rejoinRetryEvery)
				continue
			}
			return err
		}
		prev = w.id
		w.leased = leased
		err = w.loop()
		leased = w.leased
		w.stopHeartbeat()
		switch {
		case errors.Is(err, ErrEvicted):
			opt.logf("dist: worker %d evicted, re-registering", w.id)
			continue
		case err != nil && rejoinable(err):
			// Transport failure — e.g. a partition silencing every call until
			// retries ran dry. The flapping-node path: keep trying to rejoin
			// under a fresh identity until the window closes.
			opt.logf("dist: worker %d lost the coordinator (%v), rejoining", w.id, err)
			time.Sleep(rejoinRetryEvery)
			continue
		}
		return err
	}
}

// register announces the worker, builds its cache, and prefetches its home
// tiles under strict placement.
func register(cl *client, sh *spanShipper, opt *WorkerOptions, prev int) (*worker, error) {
	var rep RegisterReply
	t0 := time.Now().UnixNano()
	if err := cl.call("Register", &RegisterArgs{Version: protocolVersion, Rejoin: prev >= 0, PrevWorker: prev}, &rep); err != nil {
		return nil, err
	}
	sh.sample(rep.CoordNS, t0, time.Now().UnixNano())
	sh.setWorker(rep.Worker)
	w := &worker{
		cl: cl, opt: opt,
		id: rep.Worker, slot: rep.Slot,
		a:           tile.New[float64](rep.M, rep.N, rep.NB),
		ver:         map[coord]int{},
		home:        map[coord]bool{},
		cacheRemote: rep.CacheRemote,
		pollMS:      rep.PollMS,
		hbStop:      make(chan struct{}),
		sh:          sh,
	}
	w.cur.id = -1
	for _, c := range rep.Scatter {
		w.home[coord(c)] = true
		if err := w.fetch(coord(c), true); err != nil {
			return nil, err
		}
	}
	opt.logf("dist: worker %d registered (slot %d, %d home tiles)", w.id, w.slot, len(rep.Scatter))
	hb := time.Duration(rep.HeartbeatMS) * time.Millisecond
	go w.heartbeat(hb)
	return w, nil
}

func (w *worker) heartbeat(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-w.hbStop:
			return
		case <-t.C:
			spans, base, off, rtt, hasOff := w.sh.batch(shipBatch)
			args := &HeartbeatArgs{Worker: w.id, Spans: spans, SpanBase: base,
				OffsetNS: off, RTTNS: rtt, HasOffset: hasOff}
			var rep HeartbeatReply
			t0 := time.Now().UnixNano()
			// Errors and evictions surface on the next Lease; the beat loop
			// just keeps trying (unacked spans re-ship next beat).
			if err := w.cl.call("Heartbeat", args, &rep); err == nil {
				w.sh.sample(rep.CoordNS, t0, time.Now().UnixNano())
				w.sh.ack(len(spans))
			}
		}
	}
}

func (w *worker) stopHeartbeat() {
	select {
	case <-w.hbStop:
	default:
		close(w.hbStop)
	}
}

// fetch pulls one tile into the cache, recording a fetch span attributed
// to the current task attempt (or to the scatter prefetch, id -1). The
// frame's seal is the at-rest checksum the store verified it against; a
// broken seal means the wire corrupted it in flight, and the fetch re-asks —
// the corrupt bytes never reach the cache, let alone a kernel — up to
// defaultRPCAttempts times in a row before giving up with ErrPayloadCorrupt.
func (w *worker) fetch(c coord, scatter bool) error {
	for attempt := 1; ; attempt++ {
		var rep GetReply
		t0 := time.Now().UnixNano()
		if err := w.cl.call("Get", &GetArgs{I: c[0], J: c[1], Scatter: scatter}, &rep); err != nil {
			return err
		}
		t := w.a.Tile(c[0], c[1])
		e := trace.Event{
			ID: w.cur.id, Name: w.cur.name, Attempt: w.cur.attempt,
			Phase: trace.PhaseFetch, Start: t0, End: time.Now().UnixNano(),
			Bytes: int64(8 * len(t)), Tile: c, HasTile: true,
		}
		if scatter {
			e.ID, e.Name, e.Attempt = -1, "scatter", 1
		}
		w.sh.add(e)
		f, payload, _, err := ft.OpenFrame(rep.Frame)
		if errors.Is(err, ft.ErrFrameChecksum) {
			w.cl.countDetected()
			w.sh.instant(trace.PhaseCorrupt, fmt.Sprintf("get (%d,%d) failed CRC, refetching", c[0], c[1]))
			if attempt == defaultRPCAttempts {
				return fmt.Errorf("%w: tile (%d,%d) fetched %d times", ErrPayloadCorrupt, c[0], c[1], attempt)
			}
			w.opt.logf("dist: worker %d refetching tile (%d,%d): payload failed CRC", w.id, c[0], c[1])
			continue
		}
		if want := ft.TileFrame(w.a, c[0], c[1]); err != nil || f != want {
			return fmt.Errorf("dist: tile (%d,%d) fetch returned frame %+v (%v)", c[0], c[1], f, err)
		}
		ft.Unpack(t, payload)
		w.ver[c] = rep.Ver
		return nil
	}
}

// ensure makes every operand tile current in the cache before the kernel
// runs. Home tiles are trusted at matching versions; remote tiles are
// refetched per task unless the coordinator allowed remote caching.
func (w *worker) ensure(ops []coord, vers []int) error {
	for k, c := range ops {
		have, cached := w.ver[c]
		if cached && have == vers[k] && (w.home[c] || w.cacheRemote) {
			continue
		}
		if err := w.fetch(c, false); err != nil {
			return err
		}
	}
	return nil
}

// loop is one registration's pull loop; it returns nil when the job is
// done, ErrEvicted to re-register, or a fatal error.
func (w *worker) loop() error {
	for {
		ci, cd := w.cl.takeCorrupts()
		var rep LeaseReply
		if err := w.cl.call("Lease", &LeaseArgs{Worker: w.id, RPCRetries: w.cl.takeRetries(),
			CorruptsInjected: ci, CorruptsDetected: cd}, &rep); err != nil {
			return err
		}
		switch {
		case rep.Evicted:
			return ErrEvicted
		case rep.Done:
			spans, base, off, rtt, hasOff := w.sh.batch(0) // flush everything
			bci, bcd := w.cl.takeCorrupts()
			var bye ByeReply
			if err := w.cl.call("Bye", &ByeArgs{Worker: w.id, Spans: spans,
				SpanBase: base, OffsetNS: off, RTTNS: rtt, HasOffset: hasOff,
				CorruptsInjected: bci, CorruptsDetected: bcd}, &bye); err == nil {
				w.sh.ack(len(spans))
			}
			return nil
		case rep.Task == nil:
			ms := rep.PollMS
			if ms < 1 {
				ms = w.pollMS
			}
			time.Sleep(time.Duration(ms) * time.Millisecond)
			continue
		}
		w.leased++
		if w.opt.KillAfter > 0 && w.leased == w.opt.KillAfter {
			if w.opt.ExitOnKill {
				os.Exit(137)
			}
			w.opt.logf("dist: worker %d dying mid-lease (task %d)", w.id, rep.Task.ID)
			w.stopHeartbeat()
			return ErrKilled
		}
		if w.opt.HangAfter > 0 && w.leased == w.opt.HangAfter {
			w.opt.logf("dist: worker %d hanging %v on task %d", w.id, w.opt.HangFor, rep.Task.ID)
			time.Sleep(w.opt.HangFor)
		}
		if err := w.execute(rep.Task, rep.Token, rep.Vers, rep.Attempt); err != nil {
			return err
		}
	}
}

// execute runs one leased task: fetch operands, apply the kernel on the
// cache, commit the written tiles. A rejected commit (this worker was
// reaped or the task re-ran elsewhere) invalidates the written cache
// entries — the kernel may have computed on a stale snapshot — and the
// loop simply pulls the next task. Every leg is recorded as a span: the
// whole attempt, each operand fetch (inside ensure), the kernel compute,
// and one commit span per shipped tile sharing the commit RPC's interval.
func (w *worker) execute(t *TaskSpec, token int64, vers []int, attempt int) error {
	if attempt < 1 {
		attempt = 1
	}
	w.cur.id, w.cur.attempt, w.cur.name = t.ID, attempt, t.Kind
	defer func() { w.cur.id, w.cur.attempt, w.cur.name = -1, 0, "" }()
	whole := trace.Event{ID: t.ID, Name: t.Kind, Attempt: attempt, Start: time.Now().UnixNano()}
	reads, writes := t.Accesses()
	ops := append(reads, writes...)
	if len(vers) != len(ops) {
		return fmt.Errorf("dist: lease for task %d carries %d versions for %d operands", t.ID, len(vers), len(ops))
	}
	if err := w.ensure(ops, vers); err != nil {
		return err
	}
	args := &CommitArgs{Worker: w.id, Task: t.ID, Token: token}
	compStart := time.Now().UnixNano()
	kerr := core.Apply(t.Step, w.a, nil)
	if kerr == nil && w.opt.SlowFactor > 1 {
		// Straggler injection: pad the whole attempt so far (fetch, decode,
		// compute) to SlowFactor× its measured duration — a throttled CPU
		// slows serialization every bit as much as it slows kernels.
		time.Sleep(time.Duration(float64(time.Now().UnixNano()-whole.Start) * (w.opt.SlowFactor - 1)))
	}
	w.sh.add(trace.Event{ID: t.ID, Name: t.Kind, Attempt: attempt,
		Phase: trace.PhaseCompute, Start: compStart, End: time.Now().UnixNano()})
	if kerr != nil {
		args.Err = kerr.Error()
		for _, c := range writes {
			delete(w.ver, c) // the failed kernel may have half-written them
		}
	} else {
		for _, c := range writes {
			// The kernel rewrote these cache tiles; until the commit is
			// accepted with fresh store versions they match no known version
			// (an acknowledged-but-unapplied stale commit must not leave them
			// looking current).
			delete(w.ver, c)
			args.Tiles = append(args.Tiles, ft.TileFrame(w.a, c[0], c[1]).Append(nil, w.a.Tile(c[0], c[1])))
		}
	}
	commitStart := time.Now().UnixNano()
	var rep CommitReply
	rpcErr := w.cl.call("Commit", args, &rep)
	for sent := 1; rpcErr == nil && rep.BadPayload; sent++ {
		// The coordinator rejected the payload as corrupt-in-flight. The
		// lease is still ours and the cached bytes are fine — resend them.
		w.sh.instant(trace.PhaseCorrupt, fmt.Sprintf("commit of task %d failed CRC at coordinator, resending", t.ID))
		if sent == defaultRPCAttempts {
			rpcErr = fmt.Errorf("%w: commit of task %d sent %d times", ErrPayloadCorrupt, t.ID, sent)
			break
		}
		w.opt.logf("dist: worker %d resending commit of task %d after CRC reject", w.id, t.ID)
		rep = CommitReply{}
		rpcErr = w.cl.call("Commit", args, &rep)
	}
	commitEnd := time.Now().UnixNano()
	for _, c := range writes[:len(args.Tiles)] {
		w.sh.add(trace.Event{ID: t.ID, Name: t.Kind, Attempt: attempt,
			Phase: trace.PhaseCommit, Start: commitStart, End: commitEnd,
			Bytes: int64(8 * len(w.a.Tile(c[0], c[1]))), Tile: c, HasTile: true})
	}
	whole.End = commitEnd
	switch {
	case rpcErr != nil:
		whole.Outcome, whole.Err = trace.OutcomeFailed, rpcErr.Error()
	case kerr != nil:
		whole.Outcome, whole.Err = trace.OutcomeFailed, kerr.Error()
	case rep.Evicted || !rep.Accepted || rep.Duplicate:
		// The result was discarded (reaped straggler / eviction / losing twin
		// of a speculative race): the task ran or runs again elsewhere, which
		// is what Retried means. Exactly one attempt per task records OK.
		whole.Outcome = trace.OutcomeRetried
	default:
		whole.Outcome = trace.OutcomeOK
	}
	w.sh.add(whole)
	if rpcErr != nil {
		return rpcErr
	}
	if rep.Evicted {
		return ErrEvicted
	}
	if !rep.Accepted || rep.Duplicate {
		// Not applied: the written cache entries stay invalidated.
		return nil
	}
	for k := range args.Tiles {
		if k < len(rep.Vers) {
			w.ver[writes[k]] = rep.Vers[k]
		}
	}
	return nil
}
