package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"net/rpc"
	"reflect"
	"strings"
	"sync"
	"time"

	"exadla/internal/core"
	"exadla/internal/ft"
	"exadla/internal/trace"
)

// This file is the wire protocol of the distributed runtime: the net/rpc
// message types exchanged between stateless workers and the coordinator,
// and the retrying client the workers (and the chaos layer) speak through.
//
// The protocol is deliberately at-least-once on the client side and
// exactly-once on the server side: every call may be retried (or
// duplicated by chaos), so every server handler is idempotent — Commit is
// keyed by (task, lease token) and a re-delivered commit of a completed
// task is acknowledged without effect. That split is what makes worker
// death, dropped replies, and duplicated packets all collapse into the
// same safe outcome: the answer never changes, only the traffic bill does.

// coordService is the registered net/rpc service name.
const coordService = "Coord"

// TaskSpec names one remotely executable tile task: a core.Step (kernel
// Kind, panel step K, tile coordinates I/J) numbered by its plan position.
// Specs carry no closures: a worker reconstructs the full operand list and
// kernel call from the step plus the job geometry, which is what makes
// tasks re-executable on any process.
type TaskSpec struct {
	ID int
	core.Step
}

// protocolVersion names the wire protocol: the message types in this file
// and the ft tile frame they carry, CRC64 seal included. Bump it with any
// change a worker of another build would misread — a payload type gob
// cannot convert, or a frame layout or checksum every payload would fail,
// which the bounded integrity retries would turn into a fleet of workers
// exiting one by one. Version 2 ships each tile as one sealed frame;
// version 3 ships trace spans as trace.Event values.
const protocolVersion = 3

// RegisterArgs announces a new (or re-registering) worker. Version must equal
// the coordinator's protocolVersion (a worker from a build before versioning
// sends none, which reads as 0) or the registration is refused with
// ErrProtocolVersion. A worker that lost a previous identity — evicted while
// hung, or silenced by a network partition until its heartbeats lapsed —
// sets Rejoin and PrevWorker so the coordinator can account the rebirth
// (dist.rejoin.*) and stamp a rejoin instant on the cluster timeline. The
// fresh identity starts with an empty cache: rejoin discards all local state
// rather than trusting any of it.
type RegisterArgs struct {
	Version    int
	Rejoin     bool
	PrevWorker int
}

// RegisterReply hands the worker its identity and the job geometry.
type RegisterReply struct {
	Worker int // worker id, unique per registration
	Slot   int // process-grid slot owned (block-cyclic placement), -1 if none free
	M, N   int
	NB     int
	// LeaseMS and PollMS are the lease duration and the idle re-poll
	// interval the coordinator wants this worker to use.
	LeaseMS int
	PollMS  int
	// HeartbeatMS is the interval the worker must beat at to stay live.
	HeartbeatMS int
	// Scatter lists the tiles homed at Slot, for the initial prefetch under
	// strict placement ({} otherwise). CacheRemote permits caching fetched
	// remote tiles by version; strict placement disables it so measured
	// task traffic matches the per-access replay cost model.
	Scatter     [][2]int
	CacheRemote bool
	// CoordNS is the coordinator's clock (nanoseconds since its trace
	// epoch) when the handler ran, for RTT-midpoint offset estimation.
	CoordNS int64
}

// LeaseArgs asks for one ready task. RPCRetries piggybacks the number of
// client-side RPC retries the worker performed since its last report, so
// the coordinator's metrics see wire-level flakiness it cannot observe
// directly. CorruptsInjected and CorruptsDetected piggyback the chaos
// layer's payload-corruption count and the worker's CRC-mismatch detections
// on fetched tiles, closing the injected-vs-detected cross-check the
// integrity tests assert.
type LeaseArgs struct {
	Worker           int
	RPCRetries       int64
	CorruptsInjected int64
	CorruptsDetected int64
}

// LeaseReply grants a task (nil Task means "nothing ready; poll again in
// PollMS"). Vers lists the current version of each tile the task touches,
// in Step.Accesses order (reads then writes), so worker caches stay coherent
// under stolen writes. Done reports job completion; Evicted tells a worker
// the coordinator declared it dead (it may re-register for a fresh id).
type LeaseReply struct {
	Task    *TaskSpec
	Token   int64
	Vers    []int
	PollMS  int
	Done    bool
	Evicted bool
	// Attempt is the 1-based execution attempt this lease grants, for span
	// annotation.
	Attempt int
}

// HeartbeatArgs keeps a worker and its leases alive between Lease calls.
// It doubles as the trace-shard shipping channel: Spans carries a batch of
// locally recorded spans — a whole task attempt (Phase ""), a
// fetch/compute/commit sub-phase, or a zero-duration fault instant (see
// trace.IsFault), timed on the worker's own clock (UnixNano) — SpanBase
// the cumulative index of the batch's first span (so retransmissions and
// re-shipped unacked batches are absorbed exactly once), and
// OffsetNS/RTTNS the worker's current best (min-RTT) clock-offset sample,
// by which the coordinator re-bases the spans onto its own epoch.
type HeartbeatArgs struct {
	Worker    int
	Spans     []trace.Event
	SpanBase  int64
	OffsetNS  int64
	RTTNS     int64
	HasOffset bool
}
type HeartbeatReply struct {
	Evicted bool
	CoordNS int64
}

// GetArgs fetches one tile. Scatter marks the initial home-tile prefetch,
// billed separately from task-driven traffic.
type GetArgs struct {
	I, J    int
	Scatter bool
}

// GetReply carries the tile as one ft frame, sealed with the tile's at-rest
// checksum (rot is repaired from parity first) and re-verified by the
// fetching worker, and its store version, which the frame does not hold.
type GetReply struct {
	Frame []byte
	Ver   int
}

// CommitArgs completes a leased task, shipping its outputs: one ft frame
// per written tile, in Step.Accesses order, sealed by the worker that ran
// the kernel and verified by the coordinator before the store accepts the
// bytes and keeps the seal at rest. Err, when
// non-empty, reports a deterministic kernel failure (e.g. a non-SPD pivot)
// instead of outputs; the coordinator fails the job. Token must match the
// task's current lease or the commit is rejected (a reaped straggler).
type CommitArgs struct {
	Worker int
	Task   int
	Token  int64
	Tiles  [][]byte
	Err    string
}

// CommitReply acknowledges a commit. Vers are the store versions assigned
// to the shipped tiles, in Tiles order, so the committing worker can cache
// its own outputs coherently. Accepted is false for stale-token commits:
// the work was re-leased elsewhere and this result is discarded. Duplicate
// marks an accepted-but-unapplied commit (the task already completed — a
// retransmission, or the losing half of a speculative twin pair); the
// sender records the attempt as retried, not successful, so exactly one OK
// span exists per completed task. BadPayload reports a shipped frame that
// failed its seal: the lease is still live and the worker must resend.
type CommitReply struct {
	Accepted   bool
	Vers       []int
	Evicted    bool
	Duplicate  bool
	BadPayload bool
}

// ByeArgs deregisters a worker gracefully (mid-run scale-down), flushing
// any trace spans still unshipped (same fields as HeartbeatArgs) and the
// final corruption counters (same fields as LeaseArgs), so a clean run
// reports every injected and detected corruption.
type ByeArgs struct {
	Worker           int
	Spans            []trace.Event
	SpanBase         int64
	OffsetNS         int64
	RTTNS            int64
	HasOffset        bool
	CorruptsInjected int64
	CorruptsDetected int64
}
type ByeReply struct{}

// ErrEvicted is returned by worker RPC helpers when the coordinator has
// declared this worker dead; the worker may re-register.
var ErrEvicted = errors.New("dist: worker evicted by coordinator")

// ErrProtocolVersion is returned by RunWorker when the coordinator refused
// its registration because the two builds speak different wire protocols.
var ErrProtocolVersion = errors.New("dist: wire protocol version mismatch")

// ErrPayloadCorrupt is returned by RunWorker when a tile payload failed its
// checksum defaultRPCAttempts times in a row — on fetch, or as a commit the
// coordinator rejected. Transient wire corruption clears in a retry or two;
// a link that corrupts every payload cannot make progress, and the worker
// leaves so its leases are reaped and re-run elsewhere.
var ErrPayloadCorrupt = errors.New("dist: tile payload failed its checksum on every attempt")

// jitterSource decorrelates retry schedules across workers: each delay in
// the capped exponential ladder is re-drawn uniformly from [d/2, d] (equal
// jitter). This is the thundering-herd defense — after a coordinator stall
// every worker's retry clock would otherwise tick in lockstep (same base,
// same doubling), landing the whole fleet's retries in the same instant;
// the half-window spread breaks the synchrony while keeping the expected
// delay at 3/4 of the deterministic schedule. A non-zero seed makes the
// sequence reproducible for tests; the schedule itself (doubling, cap)
// stays at the call sites, so concurrent calls sharing the source only
// share randomness, never each other's position in the ladder.
type jitterSource struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newJitterSource(seed int64) *jitterSource {
	if seed == 0 {
		seed = rand.Int63() | 1
	}
	return &jitterSource{rng: rand.New(rand.NewSource(seed))}
}

// jitter maps one scheduled delay onto [d/2, d].
func (j *jitterSource) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return d/2 + time.Duration(j.rng.Int63n(int64(d/2)+1))
}

// client is the worker-side RPC client: one TCP connection to the
// coordinator with jittered capped-backoff retry, automatic redial, and the
// seeded network-chaos layer injected around every call. Safe for
// concurrent use (the heartbeat goroutine shares it with the task loop).
type client struct {
	addr string
	dice *chaosDice

	// onChaos, when non-nil, observes every injected wire fault (kinds
	// "drop_send", "drop_reply", "duplicate", "delay", "corrupt_get",
	// "corrupt_commit", "partition_start", "partition_end") for span
	// recording. Set before the client is shared across goroutines.
	onChaos func(kind string)

	mu       sync.Mutex
	rpc      *rpc.Client
	retries  int64 // client-side retry count, drained by takeRetries
	corrupts int64 // payload corruptions injected, drained by takeCorrupts
	detected int64 // fetch-side seal failures caught, drained alongside

	// retry policy
	maxAttempts int
	backoff     time.Duration
	jit         *jitterSource
}

const (
	defaultRPCAttempts = 8
	defaultRPCBackoff  = 5 * time.Millisecond
	maxRPCBackoff      = 500 * time.Millisecond
)

// dial connects to the coordinator, retrying with capped backoff. The
// retry jitter inherits the chaos seed (when set) so chaos runs stay fully
// reproducible; an unseeded client jitters from a random source, which is
// the point — unrelated workers must not share a retry clock.
func dial(addr string, chaos NetChaos) (*client, error) {
	jitterSeed := int64(0)
	if chaos.Seed != 0 {
		jitterSeed = chaos.Seed ^ 0x6a09e667f3bcc908 // decorrelate from the fate stream
	}
	c := &client{
		addr: addr, dice: newChaosDice(chaos),
		maxAttempts: defaultRPCAttempts, backoff: defaultRPCBackoff,
		jit: newJitterSource(jitterSeed),
	}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *client) redial() error {
	var lastErr error
	delay := c.backoff
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		conn, err := rpc.Dial("tcp", c.addr)
		if err == nil {
			c.mu.Lock()
			c.rpc = conn
			c.mu.Unlock()
			return nil
		}
		lastErr = err
		time.Sleep(c.jit.jitter(delay))
		if delay *= 2; delay > maxRPCBackoff {
			delay = maxRPCBackoff
		}
	}
	return fmt.Errorf("dist: dialing coordinator %s: %w", c.addr, lastErr)
}

func (c *client) conn() *rpc.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rpc
}

// call performs one RPC with chaos injection and jittered capped-backoff
// retry. Chaos may drop the request before it is sent (the server never
// sees it), drop the reply after the server executed it (at-least-once
// delivery made visible), delay it, duplicate it, flip a payload bit, or
// silence it entirely inside a partition window; every variant either
// succeeds eventually or surfaces the transport error after the retry
// budget.
func (c *client) call(method string, args, reply any) error {
	var lastErr error
	delay := c.backoff
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			c.mu.Lock()
			c.retries++
			c.mu.Unlock()
			time.Sleep(c.jit.jitter(delay))
			if delay *= 2; delay > maxRPCBackoff {
				delay = maxRPCBackoff
			}
		}
		fate := c.dice.draw()
		if fate.partitionStart {
			c.chaos("partition_start")
		}
		if fate.partitionEnd {
			c.chaos("partition_end")
		}
		if fate.partitioned {
			lastErr = errPartitioned
			continue
		}
		if fate.delay > 0 {
			c.chaos("delay")
			time.Sleep(fate.delay)
		}
		if fate.dropSend {
			c.chaos("drop_send")
			lastErr = errors.New("dist: chaos dropped request")
			continue
		}
		sendArgs := args
		if fate.corrupt && method == "Commit" {
			// Corrupt a deep copy, never the caller's buffer: the retry after
			// the coordinator's seal rejection must resend the clean original,
			// or the corruption would be permanent instead of transient.
			if mutated, ok := corruptCommitArgs(args, fate); ok {
				sendArgs = mutated
				c.countCorrupt()
				c.chaos("corrupt_commit")
			}
		}
		// gob leaves absent (zero-valued) fields untouched in the reply, so
		// a reused reply struct must be cleared before every decode or a
		// retry could resurrect the previous attempt's fields.
		zeroReply(reply)
		err := c.conn().Call(coordService+"."+method, sendArgs, reply)
		if err == nil && fate.duplicate {
			// Deliver the call twice; the server must be idempotent. The
			// second reply wins, like a retransmission beating the original.
			c.chaos("duplicate")
			zeroReply(reply)
			err = c.conn().Call(coordService+"."+method, sendArgs, reply)
		}
		if err == nil && fate.dropReply {
			c.chaos("drop_reply")
			lastErr = errors.New("dist: chaos dropped reply")
			continue
		}
		if err == nil {
			if fate.corrupt && method == "Get" {
				// The delivered reply is what gets corrupted — a dropped one
				// would make the injection unobservable (and uncounted).
				if gr, ok := reply.(*GetReply); ok && flipPayloadBit(gr.Frame, fate) {
					c.countCorrupt()
					c.chaos("corrupt_get")
				}
			}
			return nil
		}
		lastErr = err
		if msg, ok := strings.CutPrefix(err.Error(), ErrProtocolVersion.Error()); ok {
			// A refusal no retry can change. net/rpc carries only the text, so
			// re-type it for errors.Is.
			return fmt.Errorf("%w%s", ErrProtocolVersion, msg)
		}
		if errors.Is(err, rpc.ErrShutdown) || isNetError(err) {
			if rerr := c.redial(); rerr != nil {
				return rerr
			}
		}
	}
	return fmt.Errorf("dist: %s failed after %d attempts: %w", method, c.maxAttempts, lastErr)
}

// errPartitioned marks calls silenced by the chaos partition window, so the
// worker's rejoin logic can tell an injected partition from a dead
// coordinator.
var errPartitioned = errors.New("dist: chaos partition silenced call")

// corruptCommitArgs deep-copies a CommitArgs and flips one data bit in one
// shipped frame (false when the commit carries no payload). The trailer is
// copied untouched: corruption lies about the bytes, the seal is how the
// receiver finds out.
func corruptCommitArgs(args any, f fate) (*CommitArgs, bool) {
	ca, ok := args.(*CommitArgs)
	if !ok || len(ca.Tiles) == 0 {
		return nil, false
	}
	cp := *ca
	cp.Tiles = append([][]byte(nil), ca.Tiles...)
	k := int(f.corruptElem % uint64(len(cp.Tiles)))
	data := append([]byte(nil), cp.Tiles[k]...)
	if !flipPayloadBit(data, f) {
		return nil, false
	}
	cp.Tiles[k] = data
	return &cp, true
}

// flipPayloadBit flips bit b of element i of a frame's payload — payload
// byte 8i + b/8, bit b%8 — with i and b chosen by the fate's raw random
// draws reduced onto the payload length, so seeded chaos hits the same
// (element, bit) pairs whatever the framing. It reports false, flipping
// nothing, for a frame that does not open or carries no element.
func flipPayloadBit(frame []byte, f fate) bool {
	_, data, _, err := ft.OpenFrame(frame)
	if err != nil || len(data) < 8 {
		return false
	}
	i := int((f.corruptElem >> 8) % uint64(len(data)/8))
	data[8*i+int(f.corruptBit/8)] ^= 1 << (f.corruptBit % 8)
	return true
}

func (c *client) countCorrupt() {
	c.mu.Lock()
	c.corrupts++
	c.mu.Unlock()
}

// countDetected records a fetch-side seal failure (called by the worker).
func (c *client) countDetected() {
	c.mu.Lock()
	c.detected++
	c.mu.Unlock()
}

func (c *client) chaos(kind string) {
	if c.onChaos != nil {
		c.onChaos(kind)
	}
}

// isNetError reports whether err looks like a broken transport (as opposed
// to a server-side handler error, which net/rpc returns as a ServerError).
func isNetError(err error) bool {
	var se rpc.ServerError
	return !errors.As(err, &se)
}

// zeroReply clears a reply struct in place before a decode.
func zeroReply(reply any) {
	if v := reflect.ValueOf(reply); v.Kind() == reflect.Pointer && !v.IsNil() {
		v.Elem().SetZero()
	}
}

// takeRetries drains the client-side retry counter for piggybacking on the
// next Lease call.
func (c *client) takeRetries() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.retries
	c.retries = 0
	return n
}

// takeCorrupts drains the injected/detected corruption counters for
// piggybacking on the next Lease or Bye call.
func (c *client) takeCorrupts() (injected, detected int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	injected, detected = c.corrupts, c.detected
	c.corrupts, c.detected = 0, 0
	return injected, detected
}

func (c *client) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rpc != nil {
		_ = c.rpc.Close()
	}
}
