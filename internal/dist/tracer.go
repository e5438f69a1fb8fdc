package dist

import (
	"sync"
	"time"

	"exadla/internal/trace"
)

// spanShipper is a worker process's trace recorder: every span the worker
// emits is a trace.Event on the worker's local clock (UnixNano), appended
// here and mirrored as is into an optional local trace.Log, then shipped
// to the coordinator in batches piggybacked on heartbeats.
// Shipping is at-least-once with exactly-once absorption: spans keep their
// cumulative index (SpanBase), are removed from the queue only once a
// shipment is acknowledged, and the coordinator drops any prefix it has
// already absorbed — so chaos-retransmitted or re-shipped batches never
// duplicate spans in the merged trace.
//
// It also owns the clock-offset estimate: around every Register and
// Heartbeat RPC the worker samples (t0, CoordNS, t1) and keeps the sample
// with the smallest RTT; offset = CoordNS − (t0+t1)/2 maps this process's
// UnixNano clock onto the coordinator's epoch-relative one, with error
// bounded by half the best RTT. The offset rides along with every
// shipment, so the coordinator can align even a worker that dies early.
//
// One shipper outlives worker re-registrations (it is per process, the
// clock being estimated is per process); spans record the worker id
// current at emission time, which becomes their lane in the merged trace.
type spanShipper struct {
	mirror *trace.Log // optional worker-local mirror (nil = none)

	mu      sync.Mutex
	worker  int // current registration id, -1 before the first Register
	pending []trace.Event
	acked   int64 // cumulative index of pending[0]
	bestRTT int64
	offset  int64
	hasOff  bool
}

// shipBatch caps spans per heartbeat so shipments stay small; Bye flushes
// without a cap.
const shipBatch = 512

func newSpanShipper(mirror *trace.Log) *spanShipper {
	return &spanShipper{mirror: mirror, worker: -1}
}

func (s *spanShipper) setWorker(id int) {
	s.mu.Lock()
	s.worker = id
	s.mu.Unlock()
}

// add records one span for shipping (and into the local mirror), stamping
// it with the current registration id and that id's process lane.
func (s *spanShipper) add(e trace.Event) {
	s.mu.Lock()
	e.Worker = s.worker
	e.Proc = s.worker + 1
	s.pending = append(s.pending, e)
	s.mu.Unlock()
	if s.mirror != nil {
		s.mirror.Add(e)
	}
}

// instant records a zero-duration fault span (e.g. an injected wire fault).
func (s *spanShipper) instant(phase, detail string) {
	now := time.Now().UnixNano()
	s.add(trace.Event{ID: -1, Phase: phase, Start: now, End: now, Err: detail})
}

// sample feeds one (t0, coordNS, t1) clock observation; coordNS == 0 means
// the server predates the protocol field and is ignored.
func (s *spanShipper) sample(coordNS, t0, t1 int64) {
	if coordNS == 0 || t1 < t0 {
		return
	}
	rtt := t1 - t0
	s.mu.Lock()
	if !s.hasOff || rtt < s.bestRTT {
		s.hasOff = true
		s.bestRTT = rtt
		s.offset = coordNS - (t0+t1)/2
	}
	s.mu.Unlock()
}

// batch snapshots up to max unacked spans (0 = all) plus the current
// offset, without removing anything: removal happens in ack once the
// shipment is known to have landed.
func (s *spanShipper) batch(max int) (spans []trace.Event, base, off, rtt int64, hasOff bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.pending)
	if max > 0 && n > max {
		n = max
	}
	spans = append([]trace.Event(nil), s.pending[:n]...)
	return spans, s.acked, s.offset, s.bestRTT, s.hasOff
}

// ack removes n spans after a successful shipment.
func (s *spanShipper) ack(n int) {
	s.mu.Lock()
	if n > len(s.pending) {
		n = len(s.pending)
	}
	s.pending = s.pending[n:]
	s.acked += int64(n)
	s.mu.Unlock()
}
