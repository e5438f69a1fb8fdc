package serve

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Op names a job kind.
type Op string

// Supported job kinds. Factorize ops run the O(n³) factorization and warm
// the cache; solve ops factor (or reuse a cached factor) and then apply the
// O(n²) triangular solves to the right-hand side.
const (
	// OpSolveSPD solves A·X = B for a symmetric positive definite A via
	// tile Cholesky.
	OpSolveSPD Op = "solve"
	// OpFactorSPD factors an SPD matrix and returns its fingerprint, so
	// later OpSolveSPD jobs against the same operator hit the cache (or
	// reference it by fingerprint without re-uploading the matrix).
	OpFactorSPD Op = "factorize"
	// OpSolveLU solves A·X = B for a general square A via tile LU.
	OpSolveLU Op = "lusolve"
	// OpFactorLU factors a general square matrix via tile LU.
	OpFactorLU Op = "lufactorize"
)

func (o Op) valid() bool {
	switch o {
	case OpSolveSPD, OpFactorSPD, OpSolveLU, OpFactorLU:
		return true
	}
	return false
}

func (o Op) spd() bool { return o == OpSolveSPD || o == OpFactorSPD }

func (o Op) solves() bool { return o == OpSolveSPD || o == OpSolveLU }

// JobSpec is one submitted problem. Either A (the full n×n column-major
// operator) or Fingerprint (referencing a factor already resident in the
// cache) must be set; solve ops additionally need B (n×nrhs, column-major).
//
// Submit takes ownership of A and B: the server may overwrite both until
// the job is terminal, and then drops them. A batched solve factors A in
// place and solves into B, which becomes its result; the lane path copies
// both into tiles. Callers that need their operands afterwards pass copies.
type JobSpec struct {
	Op          Op        `json:"op"`
	N           int       `json:"n"`
	NRHS        int       `json:"nrhs,omitempty"`
	A           []float64 `json:"a,omitempty"`
	B           []float64 `json:"b,omitempty"`
	Fingerprint string    `json:"fingerprint,omitempty"`

	// testDelay stalls the job's execution; in-process test hook for
	// exercising queue backpressure deterministically.
	testDelay time.Duration
}

func (sp *JobSpec) check() error {
	if err := sp.checkDims(); err != nil {
		return err
	}
	if sp.A == nil && sp.Fingerprint == "" {
		return fmt.Errorf("op %s: need a matrix or a fingerprint", sp.Op)
	}
	if sp.A != nil && len(sp.A) != sp.N*sp.N {
		return fmt.Errorf("op %s: matrix has %d elements, want %d×%d", sp.Op, len(sp.A), sp.N, sp.N)
	}
	if sp.Op.solves() {
		if len(sp.B) != sp.N*sp.NRHS {
			return fmt.Errorf("op %s: rhs has %d elements, want %d×%d", sp.Op, len(sp.B), sp.N, sp.NRHS)
		}
	} else if sp.A == nil {
		return fmt.Errorf("op %s: factorize needs the matrix itself", sp.Op)
	}
	return nil
}

// NonFiniteError rejects a job whose operand holds a NaN or an infinity.
// A factorization would spread it through the factor, the cache would keep
// that factor for later solves, and every solution would be NaN. The HTTP
// layer answers it with 400.
type NonFiniteError struct {
	Operand  string // "A" or "B"
	Row, Col int
	Value    float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("serve: %s(%d,%d) is %v; operands must be finite", e.Operand, e.Row, e.Col, e.Value)
}

// checkFinite scans A and B once for NaN and ±Inf entries. It runs at
// submission, after check, so the raw decoder does not scan them too.
func (sp *JobSpec) checkFinite() error {
	const expMask = 0x7ff << 52
	for _, op := range []struct {
		name string
		v    []float64
	}{{"A", sp.A}, {"B", sp.B}} {
		for i, x := range op.v {
			// NaN and ±Inf are the floats whose exponent bits are all set.
			if math.Float64bits(x)&expMask == expMask {
				return &NonFiniteError{Operand: op.name, Row: i % sp.N, Col: i / sp.N, Value: x}
			}
		}
	}
	return nil
}

// checkDims validates the op and the dimensions alone, defaulting NRHS to
// 1 for solves; a raw upload is sized from them before its body is read.
// It bounds n·(n+nrhs) float64s to an int's worth of bytes, so every size
// derived from the dimensions afterwards is free of overflow.
func (sp *JobSpec) checkDims() error {
	if !sp.Op.valid() {
		return fmt.Errorf("unknown op %q", sp.Op)
	}
	if sp.N < 1 {
		return fmt.Errorf("op %s: n must be positive, got %d", sp.Op, sp.N)
	}
	nrhs := 0
	if sp.Op.solves() {
		if sp.NRHS == 0 {
			sp.NRHS = 1
		}
		if sp.NRHS < 1 {
			return fmt.Errorf("op %s: nrhs must be positive, got %d", sp.Op, sp.NRHS)
		}
		nrhs = sp.NRHS
	}
	const maxElems = math.MaxInt / 8
	if sp.N > maxElems || nrhs > maxElems || sp.N > maxElems/(sp.N+nrhs) {
		return fmt.Errorf("op %s: n=%d, nrhs=%d is too large to address", sp.Op, sp.N, nrhs)
	}
	return nil
}

// State is a job's lifecycle position.
type State int32

// Job states, in order.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return "unknown"
}

// job is the server-side record of one submitted problem.
type job struct {
	id     string
	tenant string
	spec   JobSpec

	state     atomic.Int32
	submitted time.Time
	started   atomic.Int64 // ns since submitted, 0 until running
	finished  atomic.Int64 // ns since submitted, 0 until terminal

	// Tasks of this job's DAG completed so far (big path; a batched job
	// counts its one fused submission).
	tasksDone   atomic.Int64
	cacheStatus atomic.Int32 // 0 none, 1 miss, 2 hit
	batched     atomic.Bool

	fingerprint atomic.Value // string, set once known
	errMsg      atomic.Value // string
	result      atomic.Value // []float64 (solution X) once done

	done chan struct{} // closed at terminal state
}

const (
	cacheNone int32 = iota
	cacheMiss
	cacheHit
)

func newJob(id, tenant string, spec JobSpec) *job {
	j := &job{id: id, tenant: tenant, spec: spec, submitted: time.Now(), done: make(chan struct{})}
	j.state.Store(int32(StateQueued))
	return j
}

func (j *job) cacheString() string {
	switch j.cacheStatus.Load() {
	case cacheMiss:
		return "miss"
	case cacheHit:
		return "hit"
	}
	return ""
}

func (j *job) fp() string {
	if v := j.fingerprint.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Status is the wire form of a job's state, served by GET /jobs/{id} and
// streamed by ?watch=1.
type Status struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant"`
	Op          Op      `json:"op"`
	N           int     `json:"n"`
	NRHS        int     `json:"nrhs,omitempty"`
	State       string  `json:"state"`
	TasksDone   int64   `json:"tasks_done"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	RunMs       float64 `json:"run_ms"`
	Batched     bool    `json:"batched,omitempty"`
	Cache       string  `json:"cache,omitempty"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Error       string  `json:"error,omitempty"`
}

func (j *job) status() Status {
	st := Status{
		ID:          j.id,
		Tenant:      j.tenant,
		Op:          j.spec.Op,
		N:           j.spec.N,
		NRHS:        j.spec.NRHS,
		State:       State(j.state.Load()).String(),
		TasksDone:   j.tasksDone.Load(),
		Batched:     j.batched.Load(),
		Cache:       j.cacheString(),
		Fingerprint: j.fp(),
	}
	if e := j.errMsg.Load(); e != nil {
		st.Error = e.(string)
	}
	started, finished := j.started.Load(), j.finished.Load()
	switch {
	case started > 0:
		st.QueueWaitMs = float64(started) / 1e6
	case finished > 0: // batched jobs may go queued→terminal in one hop
		st.QueueWaitMs = float64(finished) / 1e6
	default:
		st.QueueWaitMs = float64(time.Since(j.submitted)) / 1e6
	}
	if started > 0 {
		end := finished
		if end == 0 {
			end = int64(time.Since(j.submitted))
		}
		st.RunMs = float64(end-started) / 1e6
	}
	return st
}
