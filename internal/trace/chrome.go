package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format, renderable at
// chrome://tracing or ui.perfetto.dev. Phases used: "X" complete events for
// task attempts, "M" metadata (process/thread names), "s"/"f" flow events
// for dependence edges, "C" counters (queue depth, busy workers), and "i"
// instants for skipped tasks.
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

const chromePID = 1

// WriteChrome renders the log in the Chrome trace-event JSON format: one
// process, one named thread lane per worker (ordered numerically), one
// complete event per task attempt with task/attempt/outcome/queue-wait
// args, flow arrows for dependence edges, counter tracks for ready-queue
// depth and busy workers, and an extra "skipped" lane of instant events for
// tasks poisoned by failures.
func (l *Log) WriteChrome(w io.Writer) error {
	all := l.Events()
	events := all[:0:0]
	for _, e := range all {
		if e.Phase == "" {
			events = append(events, e)
		}
	}

	maxWorker, haveSkipped := 0, false
	workers := map[int]bool{}
	for _, e := range events {
		if e.Attempt == 0 {
			haveSkipped = true
			continue
		}
		if e.Worker >= 0 {
			workers[e.Worker] = true
			if e.Worker > maxWorker {
				maxWorker = e.Worker
			}
		}
	}
	skipLane := maxWorker + 1

	out := make([]chromeEvent, 0, 2*len(events)+len(workers)+2)

	// Metadata: name the process and each worker lane, ordered numerically.
	out = append(out, chromeEvent{
		Name: "process_name", Phase: "M", PID: chromePID,
		Args: map[string]any{"name": "exadla dataflow runtime"},
	})
	ids := make([]int, 0, len(workers))
	for w := range workers {
		ids = append(ids, w)
	}
	sort.Ints(ids)
	for _, wid := range ids {
		out = append(out,
			chromeEvent{Name: "thread_name", Phase: "M", PID: chromePID, TID: wid,
				Args: map[string]any{"name": fmt.Sprintf("worker %d", wid)}},
			chromeEvent{Name: "thread_sort_index", Phase: "M", PID: chromePID, TID: wid,
				Args: map[string]any{"sort_index": wid}},
		)
	}
	if haveSkipped {
		out = append(out,
			chromeEvent{Name: "thread_name", Phase: "M", PID: chromePID, TID: skipLane,
				Args: map[string]any{"name": "skipped"}},
			chromeEvent{Name: "thread_sort_index", Phase: "M", PID: chromePID, TID: skipLane,
				Args: map[string]any{"sort_index": skipLane}},
		)
	}

	// First and last executed attempt per task ID, for flow-edge endpoints.
	type bounds struct{ first, last Event }
	attempts := map[int]*bounds{}
	for _, e := range events {
		if e.Attempt == 0 {
			continue
		}
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
	}

	// Task attempts and skipped-task instants.
	for _, e := range events {
		if e.Attempt == 0 {
			out = append(out, chromeEvent{
				Name: e.Name, Phase: "i", S: "t",
				Ts: float64(e.Start) / 1e3, PID: chromePID, TID: skipLane,
				Args: map[string]any{"task": e.ID, "outcome": "skipped"},
			})
			continue
		}
		args := map[string]any{
			"task":    e.ID,
			"attempt": e.Attempt,
			"outcome": e.Outcome.String(),
			"wait_us": float64(e.QueueWait()) / 1e3,
		}
		if e.Err != "" {
			args["error"] = e.Err
		}
		out = append(out, chromeEvent{
			Name: e.Name, Phase: "X",
			Ts: float64(e.Start) / 1e3, Dur: float64(e.End-e.Start) / 1e3,
			PID: chromePID, TID: e.Worker, Args: args,
		})
	}

	// Flow arrows: one s→f pair per dependence edge, from the producer's
	// last attempt to the consumer's first.
	flowID := 0
	for _, e := range events {
		if e.Attempt == 0 {
			continue
		}
		to := attempts[e.ID]
		if to == nil || to.first.Attempt != e.Attempt || to.first.Start != e.Start {
			continue // flows target the first attempt only
		}
		for _, d := range e.Deps {
			from := attempts[d]
			if from == nil {
				continue
			}
			flowID++
			out = append(out,
				chromeEvent{Name: "dep", Phase: "s", Cat: "dep", ID: flowID,
					Ts: float64(from.last.End) / 1e3, PID: chromePID, TID: from.last.Worker},
				chromeEvent{Name: "dep", Phase: "f", Cat: "dep", ID: flowID, BP: "e",
					Ts: float64(e.Start) / 1e3, PID: chromePID, TID: e.Worker},
			)
		}
	}

	// Counter tracks, rebuilt from event transitions.
	var queue, busy []transition
	for _, e := range events {
		if e.Attempt == 0 {
			continue
		}
		if e.Ready > 0 && e.Ready <= e.Start {
			queue = append(queue, transition{e.Ready, 1}, transition{e.Start, -1})
		}
		busy = append(busy, transition{e.Start, 1}, transition{e.End, -1})
	}
	out = append(out, counterTrack("queue depth", "ready", queue)...)
	out = append(out, counterTrack("busy workers", "busy", busy)...)

	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("trace: encode chrome trace: %w", err)
	}
	return nil
}

type transition struct {
	ts    int64
	delta int
}

// counterTrack folds +1/-1 transitions into one "C" event per distinct
// timestamp carrying the running value.
func counterTrack(name, series string, trans []transition) []chromeEvent {
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
			Name: name, Phase: "C", Ts: float64(ts) / 1e3, PID: chromePID,
			Args: map[string]any{series: val},
		})
	}
	return out
}
