// Package serve is the dense-linear-algebra-as-a-service layer: a
// job-oriented HTTP front end over the tile scheduler. Tenants submit
// factorize/solve problems, poll or stream status (task progress counted
// as each of the job's tasks returns), and fetch results. The server applies per-tenant
// admission control with fair-share dequeueing and load shedding, keeps an
// LRU cache of finished factorizations keyed by matrix fingerprint so a
// repeated operator pays O(n²) triangular solves instead of the O(n³)
// factorization, and routes floods of tiny problems through the batched
// kernels on fused scheduler submissions instead of one DAG per job.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"exadla/internal/core"
	"exadla/internal/metrics"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// Config configures a Server. The zero value gets sensible defaults: two
// execution lanes splitting the CPUs, a 32-entry factor cache, and the
// batched fast path for problems of order ≤ 32.
type Config struct {
	// Addr is the HTTP listen address (host:port, port 0 for ephemeral).
	// Empty means no HTTP listener: the server is driven in-process through
	// Submit, which is how the load generator's closed-form phases run.
	Addr string

	// Lanes is the number of concurrent job executors. Each lane owns its
	// own scheduler runtime, so Lanes jobs make independent progress.
	// Default 2.
	Lanes int
	// Workers is the worker count per lane runtime (and for the batcher's
	// runtime). Default GOMAXPROCS/Lanes, at least 1.
	Workers int
	// TileSize is the tile edge used when converting submitted matrices.
	// Default 64.
	TileSize int

	// MaxQueue is the admission budget: the maximum number of admitted but
	// not yet finished jobs across all tenants. Submissions beyond it are
	// shed with 429 + Retry-After. Default 256.
	MaxQueue int
	// MaxQueuePerTenant bounds one tenant's in-flight jobs so a single
	// tenant cannot consume the whole queue budget. Default MaxQueue.
	MaxQueuePerTenant int
	// RetryAfter is the backoff hint attached to shed responses.
	// Default 1s.
	RetryAfter time.Duration

	// CacheEntries is the factorization cache capacity in entries;
	// negative disables caching. Default 32.
	CacheEntries int

	// SmallCutoff routes solve jobs of order ≤ SmallCutoff through the
	// batched fast path; negative disables batching. Default 32.
	SmallCutoff int
	// BatchMax is the most problems fused into one batched flush. A flush
	// takes whatever is queued, up to BatchMax, and never waits for more:
	// jobs arriving while it runs form the next one. Default 256.
	BatchMax int

	// Registry receives the serve.* counters and histograms (plus the lane
	// runtimes' sched.* instrumentation). Default: a fresh private registry,
	// exposed on the server's own /metrics endpoint.
	Registry *metrics.Registry
}

func (c *Config) setDefaults() {
	if c.Lanes <= 0 {
		c.Lanes = 2
	}
	if c.Workers <= 0 {
		c.Workers = max(1, runtime.GOMAXPROCS(0)/c.Lanes)
	}
	if c.TileSize <= 0 {
		c.TileSize = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxQueuePerTenant <= 0 || c.MaxQueuePerTenant > c.MaxQueue {
		c.MaxQueuePerTenant = c.MaxQueue
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	switch {
	case c.CacheEntries == 0:
		c.CacheEntries = 32
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	}
	switch {
	case c.SmallCutoff == 0:
		c.SmallCutoff = 32
	case c.SmallCutoff < 0:
		c.SmallCutoff = 0
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 256
	}
	if c.Registry == nil {
		c.Registry = metrics.New()
	}
}

// ShedError is returned by Submit when admission control rejects a job;
// the HTTP layer maps it to 429 with a Retry-After header.
type ShedError struct {
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: queue full, retry after %v", e.RetryAfter)
}

// Server is a running solve service.
type Server struct {
	cfg   Config
	reg   *metrics.Registry
	met   *svMetrics
	fpr   fingerprinter
	cache *factorCache

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*job
	qBig    map[string][]*job // per-tenant FIFO, lane path
	qSmall  map[string][]*job // per-tenant FIFO, batched path
	order   []string          // tenants in first-seen order (round-robin ring)
	seen    map[string]bool
	rrBig   int
	rrSmall int
	pending int // admitted − terminal
	perTen  map[string]int
	hwm     int
	nextID  int
	closed  bool

	ln   net.Listener
	hsrv *http.Server

	wg sync.WaitGroup
}

// New starts a Server: Lanes executor goroutines, the batcher, and (when
// Addr is set) the HTTP listener. Call Close when done.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Registry,
		fpr:    newFingerprinter(),
		jobs:   make(map[string]*job),
		qBig:   make(map[string][]*job),
		qSmall: make(map[string][]*job),
		seen:   make(map[string]bool),
		perTen: make(map[string]int),
	}
	s.met = newSVMetrics(s.reg)
	s.cache = newFactorCache(cfg.CacheEntries, s.met)
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Lanes; i++ {
		s.wg.Add(1)
		go s.runLane()
	}
	s.wg.Add(1)
	go s.runBatcher()
	if cfg.Addr != "" {
		ln, err := net.Listen("tcp", cfg.Addr)
		if err != nil {
			_ = s.Close()
			return nil, fmt.Errorf("serve: listen %s: %w", cfg.Addr, err)
		}
		s.ln = ln
		s.hsrv = &http.Server{Handler: s.handler(), ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = s.hsrv.Serve(ln) }()
	}
	return s, nil
}

// Addr returns the HTTP listen address, or "" for an in-process-only server.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Metrics snapshots the server's registry.
func (s *Server) Metrics() metrics.Snapshot { return s.reg.Snapshot() }

// CacheLen reports how many factorizations are resident in the cache.
func (s *Server) CacheLen() int { return s.cache.len() }

// Submit validates spec and admits it under tenant's budget, returning the
// job ID. A *NonFiniteError return means an operand holds a NaN or an
// infinity; a *ShedError means admission control rejected the job.
// An admitted job owns spec.A and spec.B until it ends (see JobSpec).
func (s *Server) Submit(tenant string, spec JobSpec) (string, error) {
	if tenant == "" {
		tenant = "anon"
	}
	s.met.submitted.Inc()
	if err := spec.check(); err != nil {
		return "", err
	}
	if err := spec.checkFinite(); err != nil {
		return "", err
	}
	small := s.isSmall(&spec)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return "", errors.New("serve: server closed")
	}
	if s.pending >= s.cfg.MaxQueue || s.perTen[tenant] >= s.cfg.MaxQueuePerTenant {
		s.met.shed.Inc()
		s.mu.Unlock()
		return "", &ShedError{RetryAfter: s.cfg.RetryAfter}
	}
	s.met.admitted.Inc()
	id := fmt.Sprintf("j%08d", s.nextID)
	s.nextID++
	j := newJob(id, tenant, spec)
	s.jobs[id] = j
	if !s.seen[tenant] {
		s.seen[tenant] = true
		s.order = append(s.order, tenant)
	}
	s.perTen[tenant]++
	if small {
		s.qSmall[tenant] = append(s.qSmall[tenant], j)
	} else {
		s.qBig[tenant] = append(s.qBig[tenant], j)
	}
	s.pending++
	if s.pending > s.hwm {
		s.hwm = s.pending
		s.met.queueDepthHWM.Set(float64(s.hwm))
	}
	s.met.queueDepth.Set(float64(s.pending))
	s.cond.Broadcast()
	s.mu.Unlock()
	return id, nil
}

// isSmall decides the batched fast path: tiny solve jobs carrying their own
// operator. Fingerprint references and factorize ops always take a lane (the
// batched kernels work on raw slices and do not feed the cache).
func (s *Server) isSmall(sp *JobSpec) bool {
	return sp.Op.solves() && sp.A != nil && sp.N <= s.cfg.SmallCutoff && sp.testDelay == 0
}

// Status reports a job's current state.
func (s *Server) Status(id string) (Status, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return Status{}, false
	}
	return j.status(), true
}

// WaitJob blocks until the job reaches a terminal state and returns it.
func (s *Server) WaitJob(id string) (Status, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return Status{}, false
	}
	<-j.done
	return j.status(), true
}

// Result returns a finished solve job's solution X (n×nrhs, column-major).
func (s *Server) Result(id string) ([]float64, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, fmt.Errorf("serve: no job %s", id)
	}
	switch State(j.state.Load()) {
	case StateQueued, StateRunning:
		return nil, fmt.Errorf("serve: job %s still %s", id, State(j.state.Load()))
	case StateFailed:
		return nil, fmt.Errorf("serve: job %s failed: %v", id, j.errMsg.Load())
	}
	if r := j.result.Load(); r != nil {
		return r.([]float64), nil
	}
	return nil, fmt.Errorf("serve: job %s produced no solution (factorize jobs deliver a fingerprint)", id)
}

// take blocks until q holds a job and dequeues up to max of them
// fair-share: one job per tenant per revolution of the ring, resuming at
// *cursor, so a tenant with a thousand queued jobs cannot starve one with
// a single job. Lanes take one job at a time, the batcher up to BatchMax.
// Nil once the server is closed (Close empties the queues).
func (s *Server) take(q map[string][]*job, cursor *int, max int) []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*job
	for {
		// Walk the ring until max jobs are taken or a whole revolution
		// finds every tenant's queue empty.
		for idle := 0; idle < len(s.order) && len(out) < max; {
			t := s.order[*cursor]
			*cursor = (*cursor + 1) % len(s.order)
			if len(q[t]) == 0 {
				idle++
				continue
			}
			out = append(out, q[t][0])
			q[t] = q[t][1:]
			idle = 0
		}
		if len(out) > 0 || s.closed {
			return out
		}
		s.cond.Wait()
	}
}

func (s *Server) markRunning(j *job) {
	w := int64(time.Since(j.submitted))
	j.started.Store(w)
	j.state.Store(int32(StateRunning))
	s.met.queueWait.Observe(w)
}

// finish publishes j's terminal state. The job releases its operands
// first: a terminal job holds only its status and its result.
func (s *Server) finish(j *job, err error) {
	j.spec.A, j.spec.B = nil, nil
	el := int64(time.Since(j.submitted))
	j.finished.Store(el)
	if err != nil {
		j.errMsg.Store(err.Error())
		j.state.Store(int32(StateFailed))
		s.met.failed.Inc()
	} else {
		j.state.Store(int32(StateDone))
		s.met.done.Inc()
	}
	s.met.latency.Observe(el)
	if st := j.started.Load(); st > 0 {
		s.met.runNs.Observe(el - st)
	}
	close(j.done)
	s.mu.Lock()
	s.pending--
	s.perTen[j.tenant]--
	s.met.queueDepth.Set(float64(s.pending))
	s.mu.Unlock()
}

// progress is the lane runtime as one job's walk sees it: every task body
// it submits bumps the job's tasksDone when it returns, which is where
// poll/stream status comes from. The runtime itself stays untraced, so
// each WaitErr drops its dependence map and a lane retains nothing of the
// jobs it ran.
type progress struct {
	*sched.Runtime
	done *atomic.Int64
}

func (p progress) Submit(t sched.Task) {
	if fn := t.FnErr; fn != nil {
		t.FnErr = func() error {
			defer p.done.Add(1)
			return fn()
		}
	} else if fn := t.Fn; fn != nil {
		t.Fn = func() {
			defer p.done.Add(1)
			fn()
		}
	}
	p.Runtime.Submit(t)
}

func (s *Server) runLane() {
	defer s.wg.Done()
	rt := sched.New(s.cfg.Workers, sched.WithMetrics(s.reg))
	defer rt.Shutdown()
	for {
		jobs := s.take(s.qBig, &s.rrBig, 1)
		if jobs == nil {
			return
		}
		s.execBig(rt, jobs[0])
	}
}

func (s *Server) execBig(rt *sched.Runtime, j *job) {
	s.markRunning(j)
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("serve: job %s panicked: %v", j.id, p)
			}
		}()
		return s.runBig(progress{rt, &j.tasksDone}, j)
	}()
	s.finish(j, err)
}

// runBig executes one lane-path job: resolve the factor cache, run the
// factorization or the warm triangular solves on the lane's runtime, and
// publish the result.
func (s *Server) runBig(rt sched.Scheduler, j *job) error {
	sp := &j.spec
	if sp.testDelay > 0 {
		time.Sleep(sp.testDelay)
	}
	lu := !sp.Op.spd()
	op := core.OpCholesky
	if lu {
		op = core.OpLU
	}
	key := cacheKey{fp: sp.Fingerprint, lu: lu}
	if sp.A != nil {
		key.fp = s.fpr.of(sp.A)
	}
	j.fingerprint.Store(key.fp)

	if !sp.Op.solves() {
		// Factorize: on a hit the work is already resident — the job's
		// deliverable (the fingerprint) is valid immediately.
		if f := s.cache.get(key); f != nil && f.A.N == sp.N {
			j.cacheStatus.Store(cacheHit)
			return nil
		}
		j.cacheStatus.Store(cacheMiss)
		f, err := core.Factor(rt, op, s.deferred(sp), nil, false)
		if err != nil {
			return err
		}
		s.cache.put(key, f)
		return nil
	}

	f := s.cache.get(key)
	if f != nil && f.A.N != sp.N {
		return fmt.Errorf("serve: fingerprint %s is an order-%d factor, job says n=%d", key.fp, f.A.N, sp.N)
	}
	if f == nil && sp.A == nil {
		return fmt.Errorf("serve: fingerprint %s not resident in the factor cache", key.fp)
	}
	status := cacheHit // warm: the cached factor is shared and only read
	if f == nil {
		status = cacheMiss // cold: the walk factors A first
	}
	j.cacheStatus.Store(status)
	f, x, err := core.Run(rt, f, op, s.deferred(sp), tile.Deferred(sp.N, sp.NRHS, sp.B, sp.N, s.cfg.TileSize), core.ThenSolve, nil)
	if err != nil {
		return err
	}
	if status == cacheMiss {
		s.cache.put(key, f)
	}
	j.result.Store(x)
	return nil
}

// deferred hands the job's operator to a deferred tile matrix, which the
// walk fills, and drops the job's own reference to it.
func (s *Server) deferred(sp *JobSpec) *tile.Matrix[float64] {
	a := tile.Deferred(sp.N, sp.N, sp.A, sp.N, s.cfg.TileSize)
	sp.A = nil
	return a
}

// Close shuts the server down: stop the HTTP listener gracefully (2s drain,
// then hard close), fail every still-queued job, and wait for the lanes and
// the batcher to finish their in-flight work.
func (s *Server) Close() error {
	var httpErr error
	if s.hsrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := s.hsrv.Shutdown(ctx); err != nil {
			httpErr = s.hsrv.Close()
		}
		cancel()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return httpErr
	}
	s.closed = true
	var orphans []*job
	for t := range s.qBig {
		orphans = append(orphans, s.qBig[t]...)
		s.qBig[t] = nil
	}
	for t := range s.qSmall {
		orphans = append(orphans, s.qSmall[t]...)
		s.qSmall[t] = nil
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, j := range orphans {
		s.finish(j, errors.New("serve: server shut down before the job ran"))
	}
	s.wg.Wait()
	return httpErr
}
