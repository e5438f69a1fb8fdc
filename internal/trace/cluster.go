package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Sub-phase and fault-instant labels for cluster traces. Fetch, compute,
// and commit refine one distributed task attempt into the three legs of
// its lease lifecycle; the remaining labels are zero-duration fault
// instants recorded where the fault was observed.
const (
	PhaseFetch   = "fetch"
	PhaseCompute = "compute"
	PhaseCommit  = "commit"

	PhaseEvicted = "worker_evicted"
	PhaseReaped  = "lease_reaped"
	PhaseStale   = "stale_commit"
	PhaseChaos   = "net_chaos"

	// PhaseSpecTwin marks the grant of a speculative twin lease: the same
	// task, handed to a second worker because the first ran long.
	PhaseSpecTwin = "spec_twin"
	// PhaseCorrupt marks a payload whose checksum failed verification — on the
	// wire (a Get reply or Commit body) or at rest in the store.
	PhaseCorrupt = "payload_corrupt"
	// PhasePartition marks a worker entering or leaving an injected network
	// partition window (recorded worker-side; ships once the partition heals).
	PhasePartition = "partition"
	// PhaseRejoin marks a previously evicted or partitioned worker
	// re-registering under a fresh identity.
	PhaseRejoin = "worker_rejoin"
)

// IsFault reports whether phase is a fault-instant label rather than a
// lease-lifecycle sub-phase.
func IsFault(phase string) bool {
	switch phase {
	case PhaseEvicted, PhaseReaped, PhaseStale, PhaseChaos,
		PhaseSpecTwin, PhaseCorrupt, PhasePartition, PhaseRejoin:
		return true
	}
	return false
}

// eventsFile is the native machine-readable trace format: a self-labelled
// envelope around the raw events, so downstream tools (cmd/exatrace
// -cluster, CI artifacts) can re-run any analysis instead of parsing the
// lossy Chrome export.
type eventsFile struct {
	Format string  `json:"format"`
	Events []Event `json:"events"`
}

const eventsFormat = "exadla-trace-v1"

// WriteJSON serializes the log's merged events in the native JSON format.
func (l *Log) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(eventsFile{Format: eventsFormat, Events: l.Events()}); err != nil {
		return fmt.Errorf("trace: encode events: %w", err)
	}
	return nil
}

// MaxProc is the highest process lane ReadJSON accepts: a Log keeps one
// buffer per lane up to the highest it has seen.
const MaxProc = 1 << 16

// ReadJSON parses a native events file back into a Log, for offline
// analysis of a trace captured from a live run. An event on a lane outside
// 0…MaxProc is an error.
func ReadJSON(r io.Reader) (*Log, error) {
	var f eventsFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: decode events: %w", err)
	}
	if f.Format != eventsFormat {
		return nil, fmt.Errorf("trace: unrecognised trace format %q (want %q)", f.Format, eventsFormat)
	}
	for k, e := range f.Events {
		if e.Proc < 0 || e.Proc > MaxProc {
			return nil, fmt.Errorf("trace: event %d on lane %d, outside 0…%d", k, e.Proc, MaxProc)
		}
	}
	return NewLog(f.Events...), nil
}

// ProcStats is one process lane's share of a cluster trace.
type ProcStats struct {
	// Proc is the process lane (0 coordinator, k worker k-1).
	Proc int
	// Tasks is the number of whole task attempts the lane executed.
	Tasks int
	// Compute, Fetch, and Commit are summed sub-phase seconds; Idle is the
	// cluster span not covered by any of them. Lanes without sub-phase
	// spans (in-process execution) charge whole-attempt time to Compute.
	Compute, Fetch, Commit, Idle float64
	// BytesFetched and BytesCommitted are the lane's wire bytes.
	BytesFetched, BytesCommitted int64
}

// TransferEdge aggregates the tile-transfer traffic of one tile: every
// commit→fetch flow of that tile, by total bytes moved.
type TransferEdge struct {
	Tile  [2]int
	Bytes int64
	Count int
}

// ClusterStats summarizes a merged multi-process trace.
type ClusterStats struct {
	// Span is the wall-clock extent in seconds across all lanes.
	Span float64
	// Procs holds one entry per process lane, ordered by lane.
	Procs []ProcStats
	// Faults counts fault instants by kind (worker_evicted, lease_reaped,
	// stale_commit, net_chaos).
	Faults map[string]int
	// Transfers lists tile-transfer edges sorted by descending bytes.
	Transfers []TransferEdge
}

// AnalyzeCluster computes the per-process communication/computation split
// of a merged cluster trace.
func (l *Log) AnalyzeCluster() ClusterStats {
	events := l.Events()
	st := ClusterStats{Faults: map[string]int{}}
	if len(events) == 0 {
		return st
	}

	procs := map[int]*ProcStats{}
	lane := func(p int) *ProcStats {
		ps := procs[p]
		if ps == nil {
			ps = &ProcStats{Proc: p}
			procs[p] = ps
		}
		return ps
	}
	phased := map[int]bool{}
	transfers := map[[2]int]*TransferEdge{}
	commitSeen := map[[3]int]bool{} // (proc, id, attempt)
	var first, last int64
	haveSpan := false
	for _, e := range events {
		if e.End > e.Start {
			if !haveSpan {
				first, last, haveSpan = e.Start, e.End, true
			}
			if e.Start < first {
				first = e.Start
			}
			if e.End > last {
				last = e.End
			}
		}
		d := float64(e.End-e.Start) / 1e9
		switch e.Phase {
		case "":
			if e.Attempt > 0 {
				ps := lane(e.Proc)
				ps.Tasks++
				ps.Compute += d // provisional; replaced below if lane is phased
			}
		case PhaseFetch:
			ps := lane(e.Proc)
			phased[e.Proc] = true
			ps.Fetch += d
			ps.BytesFetched += e.Bytes
			if e.HasTile && e.ID >= 0 {
				t := transfers[e.Tile]
				if t == nil {
					t = &TransferEdge{Tile: e.Tile}
					transfers[e.Tile] = t
				}
				t.Bytes += e.Bytes
				t.Count++
			}
		case PhaseCompute:
			phased[e.Proc] = true
		case PhaseCommit:
			ps := lane(e.Proc)
			phased[e.Proc] = true
			ps.BytesCommitted += e.Bytes
			key := [3]int{e.Proc, e.ID, e.Attempt}
			if !commitSeen[key] {
				commitSeen[key] = true
				ps.Commit += d
			}
		default:
			st.Faults[e.Phase]++
		}
	}
	// Phased lanes: recompute Compute from compute sub-spans so fetch and
	// commit time inside the whole-attempt slice is not double-charged.
	for p := range phased {
		lane(p).Compute = 0
	}
	for _, e := range events {
		if e.Phase == PhaseCompute && phased[e.Proc] {
			lane(e.Proc).Compute += float64(e.End-e.Start) / 1e9
		}
	}

	if haveSpan {
		st.Span = float64(last-first) / 1e9
	}
	pids := make([]int, 0, len(procs))
	for p := range procs {
		pids = append(pids, p)
	}
	sort.Ints(pids)
	for _, p := range pids {
		ps := procs[p]
		if idle := st.Span - ps.Compute - ps.Fetch - ps.Commit; idle > 0 {
			ps.Idle = idle
		}
		st.Procs = append(st.Procs, *ps)
	}
	for _, t := range transfers {
		st.Transfers = append(st.Transfers, *t)
	}
	sort.Slice(st.Transfers, func(i, j int) bool {
		a, b := st.Transfers[i], st.Transfers[j]
		if a.Bytes != b.Bytes {
			return a.Bytes > b.Bytes
		}
		if a.Tile[0] != b.Tile[0] {
			return a.Tile[0] < b.Tile[0]
		}
		return a.Tile[1] < b.Tile[1]
	})
	return st
}
