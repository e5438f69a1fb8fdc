// Package autotune implements the self-adapting layer the keynote calls
// for: empirical search over algorithm parameters (tile size, block size)
// with a persistent tuning table, replacing per-machine hand tuning.
package autotune

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"exadla/internal/core"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// Measurement is one (parameter, best-observed-seconds) pair.
type Measurement struct {
	Param   int     `json:"param"`
	Seconds float64 `json:"seconds"`
	// Pruned marks candidates abandoned after the first repetition because
	// they were already far off the best.
	Pruned bool `json:"pruned,omitempty"`
}

// Result is the outcome of one Search.
type Result struct {
	Best  int           `json:"best"`
	Table []Measurement `json:"table"`
}

// pruneFactor abandons a candidate whose first measurement exceeds this
// multiple of the best time seen so far.
const pruneFactor = 3.0

// Search measures every candidate parameter reps times (minimum-of-reps,
// the standard noise filter for timing) and returns the fastest. measure
// runs the workload for one parameter value and returns elapsed seconds;
// if it returns a negative value the candidate is treated as invalid and
// skipped. Candidates whose first measurement is more than pruneFactor×
// the incumbent best are not re-measured.
func Search(candidates []int, reps int, measure func(param int) float64) Result {
	if reps < 1 {
		reps = 1
	}
	res := Result{Best: -1}
	best := math.Inf(1)
	for _, p := range candidates {
		first := measure(p)
		if first < 0 {
			continue
		}
		m := Measurement{Param: p, Seconds: first}
		if first > pruneFactor*best {
			m.Pruned = true
			res.Table = append(res.Table, m)
			continue
		}
		for r := 1; r < reps; r++ {
			if s := measure(p); s >= 0 && s < m.Seconds {
				m.Seconds = s
			}
		}
		res.Table = append(res.Table, m)
		if m.Seconds < best {
			best = m.Seconds
			res.Best = p
		}
	}
	return res
}

// TileSweep searches the tile size of op's tiled factorization (a core op:
// core.OpCholesky, core.OpLU or core.OpQR) of the n×n column-major matrix
// a. Each measurement tiles a afresh at the candidate size and times the
// factorization alone on a fresh workers-wide runtime; candidates larger
// than n are skipped. It returns Search's result over candidates.
func TileSweep(op string, n int, a []float64, workers int, candidates []int, reps int) Result {
	return Search(candidates, reps, func(nb int) float64 {
		if nb > n {
			return -1
		}
		t := tile.FromColMajor(n, n, a, n, nb)
		rt := sched.New(workers)
		defer rt.Shutdown()
		return Time(func() {
			if _, err := core.Factor(rt, op, t, nil, false); err != nil {
				panic(err)
			}
		})
	})
}

// Time runs f once and returns elapsed seconds — the usual measure
// callback body.
func Time(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// Table is a persistent map from workload keys to tuned parameters, stored
// as JSON. It is safe for concurrent use.
type Table struct {
	mu      sync.Mutex
	Entries map[string]int `json:"entries"`
}

// NewTable returns an empty tuning table.
func NewTable() *Table {
	return &Table{Entries: map[string]int{}}
}

// Key builds the canonical lookup key for an operation instance.
func Key(op string, n, workers int) string {
	return fmt.Sprintf("%s/n=%d/w=%d", op, n, workers)
}

// GlobalKey builds the lookup key for a machine-global parameter — one that
// does not vary with problem size or worker count, such as the GEMM
// register- and cache-blocking factors tuned by exatune.
func GlobalKey(param string) string {
	return "global/" + param
}

// Lookup returns the tuned parameter for key, if present.
func (t *Table) Lookup(key string) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.Entries[key]
	return v, ok
}

// Set records a tuned parameter.
func (t *Table) Set(key string, v int) {
	t.mu.Lock()
	t.Entries[key] = v
	t.mu.Unlock()
}

// Save writes the table as JSON to path.
func (t *Table) Save(path string) error {
	t.mu.Lock()
	data, err := json.MarshalIndent(t, "", "  ")
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("autotune: encode table: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a table from path; a missing file yields an empty table.
func Load(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewTable(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("autotune: read table: %w", err)
	}
	t := NewTable()
	if err := json.Unmarshal(data, t); err != nil {
		return nil, fmt.Errorf("autotune: decode table: %w", err)
	}
	if t.Entries == nil {
		t.Entries = map[string]int{}
	}
	return t, nil
}
