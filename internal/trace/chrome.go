package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format, renderable at
// chrome://tracing or ui.perfetto.dev. Phases used: "X" complete events for
// task attempts and their sub-phases, "M" metadata (process/thread names),
// "s"/"f" flow events for dependence edges and tile transfers, "C" counters
// (queue depth, busy workers), and "i" instants for skipped tasks and
// faults.
type chromeEvent struct {
	Name  string `json:"name"`
	Phase string `json:"ph"`
	Cat   string `json:"cat,omitempty"`
	// Ts and Dur are in microseconds per the format.
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome renders the log in the Chrome trace-event JSON format, for an
// in-process run and a merged cluster trace alike:
//   - one process lane per Proc (pid Proc+1): "exadla dataflow runtime"
//     for a single-process log, otherwise "coordinator" and "worker k";
//   - one named thread lane per worker, ordered numerically, plus a
//     "skipped" lane of instant events for tasks poisoned by failures;
//   - one complete event per task attempt with task/attempt/outcome/
//     queue-wait args, and nested fetch/compute/commit sub-phase slices
//     (cat "phase");
//   - fault instants (cat "fault": evictions, lease reaps, stale commits,
//     wire chaos, speculative twins, corrupt payloads, partitions, rejoins);
//   - flow arrows for dependence edges (cat "dep", producer's last attempt
//     to consumer's first) and tile transfers (cat "tile", a tile's commit
//     to each later fetch of it);
//   - per-process counter tracks for ready-queue depth and busy workers.
func (l *Log) WriteChrome(w io.Writer) error {
	events := l.Events()

	procs := map[int]bool{}
	threads := map[[2]int]bool{} // (proc, worker)
	skipProcs := map[int]bool{}
	maxWorker, clustered := 0, false
	for _, e := range events {
		procs[e.Proc] = true
		clustered = clustered || e.Proc > 0
		switch {
		case e.Phase == "" && e.Attempt == 0:
			skipProcs[e.Proc] = true
		case e.Worker >= 0:
			threads[[2]int{e.Proc, e.Worker}] = true
			if e.Worker > maxWorker {
				maxWorker = e.Worker
			}
		}
	}
	skipLane := maxWorker + 1
	pidOf := func(e Event) int { return e.Proc + 1 }
	tidOf := func(e Event) int {
		switch {
		case e.Phase == "" && e.Attempt == 0:
			return skipLane
		case e.Worker >= 0:
			return e.Worker
		}
		return 0
	}

	out := make([]chromeEvent, 0, 2*len(events)+2*len(procs)+2*len(threads)+2)

	// Metadata: name each process and thread lane, ordered numerically.
	for _, p := range sortedKeys(procs) {
		name := "exadla dataflow runtime"
		switch {
		case p > 0:
			name = fmt.Sprintf("worker %d", p-1)
		case clustered:
			name = "coordinator"
		}
		out = append(out,
			chromeEvent{Name: "process_name", Phase: "M", PID: p + 1,
				Args: map[string]any{"name": name}},
			chromeEvent{Name: "process_sort_index", Phase: "M", PID: p + 1,
				Args: map[string]any{"sort_index": p}},
		)
	}
	lanes := make([][2]int, 0, len(threads)+len(skipProcs))
	for t := range threads {
		lanes = append(lanes, t)
	}
	for p := range skipProcs {
		lanes = append(lanes, [2]int{p, skipLane})
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i][0] != lanes[j][0] {
			return lanes[i][0] < lanes[j][0]
		}
		return lanes[i][1] < lanes[j][1]
	})
	for _, t := range lanes {
		name := fmt.Sprintf("worker %d", t[1])
		if t[1] == skipLane {
			name = "skipped"
		}
		out = append(out,
			chromeEvent{Name: "thread_name", Phase: "M", PID: t[0] + 1, TID: t[1],
				Args: map[string]any{"name": name}},
			chromeEvent{Name: "thread_sort_index", Phase: "M", PID: t[0] + 1, TID: t[1],
				Args: map[string]any{"sort_index": t[1]}},
		)
	}

	// First and last executed attempt per task ID, for dependence flows;
	// commit spans indexed by tile and sorted by end time, for tile flows.
	type bounds struct{ first, last Event }
	attempts := map[int]*bounds{}
	commits := map[[2]int][]Event{}
	for _, e := range events {
		switch {
		case e.Phase == "" && e.Attempt > 0:
			b := attempts[e.ID]
			if b == nil {
				attempts[e.ID] = &bounds{first: e, last: e}
				continue
			}
			if e.Start < b.first.Start {
				b.first = e
			}
			if e.End > b.last.End {
				b.last = e
			}
		case e.Phase == PhaseCommit && e.HasTile:
			commits[e.Tile] = append(commits[e.Tile], e)
		}
	}
	for _, cs := range commits {
		sort.Slice(cs, func(i, j int) bool { return cs[i].End < cs[j].End })
	}

	flowID := 0
	flow := func(name, cat string, from, to Event, fromTs float64) {
		flowID++
		out = append(out,
			chromeEvent{Name: name, Phase: "s", Cat: cat, ID: flowID,
				Ts: fromTs, PID: pidOf(from), TID: tidOf(from)},
			chromeEvent{Name: name, Phase: "f", Cat: cat, ID: flowID, BP: "e",
				Ts: us(to.Start), PID: pidOf(to), TID: tidOf(to)},
		)
	}
	type tracks struct{ queue, busy []transition }
	counters := map[int]*tracks{}

	for _, e := range events {
		ts := us(e.Start)
		switch {
		case IsFault(e.Phase):
			args := map[string]any{"kind": e.Phase}
			if e.ID >= 0 {
				args["task"] = e.ID
			}
			if e.Worker >= 0 {
				args["worker"] = e.Worker
			}
			if e.Err != "" {
				args["detail"] = e.Err
			}
			out = append(out, chromeEvent{
				Name: e.Phase, Phase: "i", Cat: "fault", S: "p",
				Ts: ts, PID: pidOf(e), TID: tidOf(e), Args: args,
			})
		case e.Phase != "":
			args := map[string]any{"task": e.ID, "attempt": e.Attempt}
			if e.Bytes > 0 {
				args["bytes"] = e.Bytes
			}
			if e.HasTile {
				args["tile"] = fmt.Sprintf("(%d,%d)", e.Tile[0], e.Tile[1])
			}
			out = append(out, chromeEvent{
				Name: e.Phase, Phase: "X", Cat: "phase",
				Ts: ts, Dur: us(e.End - e.Start),
				PID: pidOf(e), TID: tidOf(e), Args: args,
			})
			// The latest commit of this tile that finished before the
			// fetch began is the transfer's producer.
			if e.Phase == PhaseFetch && e.HasTile && e.ID >= 0 {
				cs := commits[e.Tile]
				i := sort.Search(len(cs), func(i int) bool { return cs[i].End > e.Start })
				if i > 0 {
					src := cs[i-1]
					flow(fmt.Sprintf("tile(%d,%d)", e.Tile[0], e.Tile[1]), "tile", src, e, us(src.End))
				}
			}
		case e.Attempt == 0:
			out = append(out, chromeEvent{
				Name: e.Name, Phase: "i", S: "t",
				Ts: ts, PID: pidOf(e), TID: tidOf(e),
				Args: map[string]any{"task": e.ID, "outcome": "skipped"},
			})
		default:
			args := map[string]any{
				"task":    e.ID,
				"attempt": e.Attempt,
				"outcome": e.Outcome.String(),
				"wait_us": us(e.QueueWait()),
			}
			if e.Err != "" {
				args["error"] = e.Err
			}
			out = append(out, chromeEvent{
				Name: e.Name, Phase: "X",
				Ts: ts, Dur: us(e.End - e.Start),
				PID: pidOf(e), TID: tidOf(e), Args: args,
			})
			// One flow per dependence edge, landing on the first attempt.
			if to := attempts[e.ID]; to.first.Attempt == e.Attempt && to.first.Start == e.Start {
				for _, d := range e.Deps {
					if from := attempts[d]; from != nil {
						flow("dep", "dep", from.last, e, us(from.last.End))
					}
				}
			}
			t := counters[e.Proc]
			if t == nil {
				t = &tracks{}
				counters[e.Proc] = t
			}
			if e.Ready > 0 && e.Ready <= e.Start {
				t.queue = append(t.queue, transition{e.Ready, 1}, transition{e.Start, -1})
			}
			t.busy = append(t.busy, transition{e.Start, 1}, transition{e.End, -1})
		}
	}

	for _, p := range sortedKeys(counters) {
		out = append(out, counterTrack(p+1, "queue depth", "ready", counters[p].queue)...)
		out = append(out, counterTrack(p+1, "busy workers", "busy", counters[p].busy)...)
	}

	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("trace: encode chrome trace: %w", err)
	}
	return nil
}

// us converts trace nanoseconds to the format's microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

type transition struct {
	ts    int64
	delta int
}

// counterTrack folds +1/-1 transitions into one "C" event per distinct
// timestamp carrying the running value, on process lane pid.
func counterTrack(pid int, name, series string, trans []transition) []chromeEvent {
	if len(trans) == 0 {
		return nil
	}
	sort.Slice(trans, func(i, j int) bool { return trans[i].ts < trans[j].ts })
	var out []chromeEvent
	val := 0
	for i := 0; i < len(trans); {
		ts := trans[i].ts
		for i < len(trans) && trans[i].ts == ts {
			val += trans[i].delta
			i++
		}
		out = append(out, chromeEvent{
			Name: name, Phase: "C", Ts: us(ts), PID: pid,
			Args: map[string]any{series: val},
		})
	}
	return out
}
