package dist

import (
	"math/rand"
	"sync"
	"time"
)

// NetChaos is the wire-level fault injector, the network sibling of
// sched.WithChaos's soft modes (in-task transient errors) and hard modes
// (worker death). It sits inside the worker's RPC client and, per call, draws a
// seeded fate: drop the request before it leaves (the coordinator never
// sees it), drop the reply after the server executed (forcing a retry of a
// call whose effects already happened — the at-least-once case that proves
// handler idempotency), delay the call, duplicate it, or flip a payload bit
// (the lying-node case the end-to-end seal of every tile frame exists to
// catch).
// Probabilities are independent; the seed makes every run's fault sequence
// reproducible, so a chaos test that passes once passes always.
//
// On top of the per-call dice there is one time-based fault: a partition
// window. From PartitionAfter after the client dialed, for PartitionFor,
// every call is dropped before transmission — heartbeats included — so the
// coordinator sees total silence, evicts the worker, and the worker must
// rejoin when the window closes (the flapping-node case).
//
// The zero value injects nothing. NetChaos is pure configuration and
// freely copyable; the RNG state lives in the chaosDice the RPC client
// builds from it.
type NetChaos struct {
	// DropSend is the probability the request is never transmitted.
	DropSend float64
	// DropReply is the probability the reply is discarded after the server
	// has fully executed the call.
	DropReply float64
	// Dup is the probability the call is transmitted twice back-to-back.
	Dup float64
	// Delay is the probability the call is delayed by MaxDelay.
	Delay float64
	// MaxDelay is the injected latency for delayed calls.
	MaxDelay time.Duration
	// Corrupt is the probability a data-bearing payload (a Get reply or a
	// Commit body) has one random bit flipped in flight: bit b of element i,
	// i.e. byte 8i + b/8 of a frame's payload. The frame's trailer travels
	// untouched — corruption lies about the data, not about the check.
	Corrupt float64
	// PartitionAfter/PartitionFor define the partition window: starting
	// PartitionAfter after the client connects, every call is silently
	// dropped for PartitionFor. Zero PartitionFor disables the window.
	PartitionAfter time.Duration
	PartitionFor   time.Duration
	// Seed makes the fault sequence deterministic; 0 means seed 1.
	Seed int64
}

// enabled reports whether any fault has a non-zero probability.
func (c NetChaos) enabled() bool {
	return c.DropSend > 0 || c.DropReply > 0 || c.Dup > 0 || c.Delay > 0 ||
		c.Corrupt > 0 || c.PartitionFor > 0
}

// chaosDice is the seeded per-client fault source.
type chaosDice struct {
	cfg   NetChaos
	birth time.Time
	mu    sync.Mutex
	rng   *rand.Rand
	// inPartition tracks the window state between draws so the start/end
	// transitions are reported exactly once each.
	inPartition bool
}

func newChaosDice(cfg NetChaos) *chaosDice {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &chaosDice{cfg: cfg, birth: time.Now(), rng: rand.New(rand.NewSource(seed))}
}

// fate is one call's drawn outcome.
type fate struct {
	dropSend  bool
	dropReply bool
	duplicate bool
	delay     time.Duration
	// corrupt flips one payload bit; corruptElem/corruptBit are the raw
	// random draws the injector reduces onto the payload's actual length.
	corrupt     bool
	corruptElem uint64
	corruptBit  uint
	// partitioned silences this call entirely; partitionStart/End flag the
	// window transitions (each reported once) for span recording.
	partitioned    bool
	partitionStart bool
	partitionEnd   bool
}

// draw rolls the per-call dice. Safe for concurrent use.
func (d *chaosDice) draw() fate {
	if d == nil || !d.cfg.enabled() {
		return fate{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var f fate
	if d.cfg.PartitionFor > 0 {
		since := time.Since(d.birth)
		in := since >= d.cfg.PartitionAfter && since < d.cfg.PartitionAfter+d.cfg.PartitionFor
		if in && !d.inPartition {
			f.partitionStart = true
		}
		if !in && d.inPartition {
			f.partitionEnd = true
		}
		d.inPartition = in
		if in {
			f.partitioned = true
			f.dropSend = true
		}
	}
	if d.rng.Float64() < d.cfg.DropSend {
		f.dropSend = true
	}
	if d.rng.Float64() < d.cfg.DropReply {
		f.dropReply = true
	}
	if d.rng.Float64() < d.cfg.Dup {
		f.duplicate = true
	}
	if d.rng.Float64() < d.cfg.Delay {
		f.delay = d.cfg.MaxDelay
	}
	if d.cfg.Corrupt > 0 && d.rng.Float64() < d.cfg.Corrupt {
		f.corrupt = true
		f.corruptElem = d.rng.Uint64()
		f.corruptBit = uint(d.rng.Intn(64))
	}
	return f
}
