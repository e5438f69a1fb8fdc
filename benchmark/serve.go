package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"time"

	"exadla"
)

// Frozen constants of the two serve workloads (calibrated on the seed
// commit; see README.md).
const (
	warmN            = 512 // order of the pre-loaded operators of serve_mixed
	warmOps          = 8   // how many of them
	tinyPool         = 64  // distinct tiny problems, reused round-robin
	tenants          = 4
	bgN              = 1024 // order of serve_mixed's background factorizations
	bgPairsPerSecond = 0.8
	bgStagger        = 25 * time.Millisecond
	coldN            = 256 // order of serve_cold's operators
	cacheEntries     = 32  // the default ServeConfig.CacheEntries
	holFactor        = 10  // "delayed" means slower than this × the fg median
	serveTimeout     = 60 * time.Second
)

// serveOp is the verification record of one scheduled request.
type serveOp struct {
	due     time.Duration
	fg      bool
	kind    string // "tiny", "warm", "cold"
	tenant  int
	problem int // index into the kind's pool
	patchAt int // cold: which diagonal entry was replaced …
	patchTo float64
	id      string             // server-side job id
	st      exadla.ServeStatus // terminal status
	x       []float64          // answer fetched over HTTP (cold fg only)
	sent    time.Duration      // POST returned (traced pass)
	resultD time.Duration      // GET result duration (cold fg)
}

type tinyProblem struct {
	n    int
	a, b []float64
	body []byte
}

// serveWorkload drives exadla.Serve over loopback HTTP with an open-loop
// schedule. mixed selects serve_mixed (reads: tiny and warm solves with
// cold factorizations in the background); otherwise serve_cold (writes:
// every request uploads a unique operator).
type serveWorkload struct {
	mixed bool
	cfg   runConfig
	rate  float64 // foreground arrivals per second

	srv  *exadla.SolveServer
	base string

	tiny    []tinyProblem
	warmA   [][]float64 // the pre-loaded operators
	warmFP  []string
	warmRHS [][]float64
	warmRaw [][]byte
	coldA   []float64 // base operator of the cold kind (order bgN or coldN)
	coldN   int
	coldRHS [][]float64
	// One upload buffer per sender: the operator pre-encoded once, made
	// unique per request by replacing one diagonal entry.
	coldBody  [][]byte
	coldPatch []int // per sender: diagonal entry currently replaced, or -1

	recs []serveOp // the schedule, sorted by due time
}

func newServeWorkload(mixed bool, rate float64) func(cfg runConfig) workload {
	return func(cfg runConfig) workload { return &serveWorkload{mixed: mixed, cfg: cfg, rate: rate} }
}

func putFloats(dst []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

func rawFloats(v []float64) []byte {
	b := make([]byte, 8*len(v))
	putFloats(b, v)
	return b
}

func (w *serveWorkload) setUp() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	srv, err := exadla.Serve(exadla.ServeConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	w.srv, w.base = srv, "http://"+srv.Addr()
	w.coldN = coldN
	if w.mixed {
		w.coldN = bgN
		if err := w.setUpMixed(rng); err != nil {
			return err
		}
	}
	w.coldA = exadla.RandomSPD(rng, w.coldN).Data()
	w.coldRHS = make([][]float64, 16)
	for i := range w.coldRHS {
		w.coldRHS[i] = exadla.RandomGeneral(rng, w.coldN, 1).Data()
	}
	w.coldBody = make([][]byte, nproc())
	w.coldPatch = make([]int, nproc())
	for s := range w.coldBody {
		w.coldBody[s] = make([]byte, 8*(len(w.coldA)+w.coldN))
		putFloats(w.coldBody[s], w.coldA)
		w.coldPatch[s] = -1
	}
	w.buildSchedule(rng)
	return w.warmUp()
}

func (w *serveWorkload) setUpMixed(rng *rand.Rand) error {
	w.tiny = make([]tinyProblem, tinyPool)
	for i := range w.tiny {
		n := 8 + 4*rng.Intn(7) // 8 … 32
		p := tinyProblem{n: n, a: exadla.RandomSPD(rng, n).Data(), b: exadla.RandomGeneral(rng, n, 1).Data()}
		body, err := json.Marshal(exadla.ServeJob{Op: exadla.ServeSolveSPD, N: n, NRHS: 1, A: p.a, B: p.b})
		if err != nil {
			return err
		}
		p.body = body
		w.tiny[i] = p
	}
	// Pre-load the warm operators and learn their fingerprints, which are
	// private to this server instance.
	w.warmA, w.warmFP = make([][]float64, warmOps), make([]string, warmOps)
	for i := range w.warmA {
		w.warmA[i] = exadla.RandomSPD(rng, warmN).Data()
		id, err := w.srv.Submit("preload", exadla.ServeJob{Op: exadla.ServeFactorSPD, N: warmN, A: w.warmA[i]})
		if err != nil {
			return fmt.Errorf("pre-load: %w", err)
		}
		st, _ := w.srv.WaitJob(id)
		if st.State != "done" || st.Fingerprint == "" {
			return fmt.Errorf("pre-load: job %s ended %s: %s", id, st.State, st.Error)
		}
		w.warmFP[i] = st.Fingerprint
	}
	w.warmRHS = make([][]float64, 32)
	w.warmRaw = make([][]byte, len(w.warmRHS))
	for i := range w.warmRHS {
		w.warmRHS[i] = exadla.RandomGeneral(rng, warmN, 1).Data()
		w.warmRaw[i] = rawFloats(w.warmRHS[i])
	}
	return nil
}

// buildSchedule lays out every operation — due time, kind, tenant, inputs —
// before the clock starts.
func (w *serveWorkload) buildSchedule(rng *rand.Rand) {
	w.recs = nil
	cold := func(due float64, fg bool) serveOp {
		at := rng.Intn(w.coldN)
		return serveOp{due: time.Duration(due * 1e9), fg: fg, kind: "cold", problem: rng.Intn(len(w.coldRHS)),
			patchAt: at, patchTo: w.coldA[at+at*w.coldN] * (1 + rng.Float64())}
	}
	var t float64
	for i := 0; i < w.cfg.count; i++ {
		if !w.mixed {
			t = float64(i) / w.rate // fixed rate
			w.recs = append(w.recs, cold(t, true))
			continue
		}
		t += rng.ExpFloat64() / w.rate // Poisson arrivals
		r := serveOp{due: time.Duration(t * 1e9), fg: true, tenant: rng.Intn(tenants)}
		if rng.Intn(2) == 0 {
			r.kind, r.problem = "tiny", rng.Intn(len(w.tiny))
		} else {
			r.kind, r.problem = "warm", rng.Intn(warmOps*len(w.warmRHS))
		}
		w.recs = append(w.recs, r)
	}
	if w.mixed && !w.cfg.noBackground {
		// A fixed number of background uploads, in pairs staggered so that
		// both lanes are busy at once: with two lanes a single big job
		// blocks nobody. The pairs are evenly spaced with a seeded jitter
		// of half a slot — the amount of disturbance must not depend on the
		// seed, only its placement.
		nPairs := max(1, int(math.Round(float64(w.cfg.count)/w.rate*bgPairsPerSecond)))
		slot := t / float64(nPairs)
		for i := 0; i < nPairs; i++ {
			at := (float64(i) + 0.25 + 0.5*rng.Float64()) * slot
			w.recs = append(w.recs, cold(at, false), cold(at+bgStagger.Seconds(), false))
		}
	}
	sort.SliceStable(w.recs, func(a, b int) bool { return w.recs[a].due < w.recs[b].due })
}

// bind turns schedule records into generator operations.
func (w *serveWorkload) bind(recs []serveOp) []schedOp {
	ops := make([]schedOp, len(recs))
	for i := range recs {
		r := &recs[i]
		ops[i] = schedOp{due: r.due, fg: r.fg, kind: r.kind,
			send: func(cl *http.Client, sender int, done func(error)) { w.send(cl, sender, r, done) }}
	}
	return ops
}

// warmUp sends requests over HTTP outside the schedule: one of every kind
// on serve_mixed, and on serve_cold as many unique operators as the factor
// cache holds, so that every measured request evicts as well as misses.
func (w *serveWorkload) warmUp() error {
	perKind := 1
	if !w.mixed {
		perKind = cacheEntries
	}
	seen := map[string]int{}
	var recs []serveOp
	for _, r := range w.recs {
		if key := fmt.Sprint(r.kind, r.fg); seen[key] < perKind {
			seen[key]++
			r.due = 0
			r.patchTo *= 1.5 // not the operator the schedule will send: that one must still miss
			recs = append(recs, r)
		}
	}
	out, _ := runOpenLoop(w.bind(recs), 1)
	for i, o := range out {
		if o.err != nil {
			return fmt.Errorf("warm-up %s: %w", recs[i].kind, o.err)
		}
	}
	return nil
}

func (w *serveWorkload) tearDown() {
	if w.srv != nil {
		_ = w.srv.Close() // drained already; the listener error carries nothing to act on
		w.srv = nil
	}
}

// send performs one scheduled operation on the sender's connection.
func (w *serveWorkload) send(cl *http.Client, sender int, r *serveOp, done func(error)) {
	tenant := fmt.Sprintf("t%d", r.tenant)
	switch {
	case r.kind == "tiny":
		w.postAsync(cl, r, w.base+"/jobs", "application/json", tenant, w.tiny[r.problem].body, done)
	case r.kind == "warm":
		url := fmt.Sprintf("%s/jobs?op=solve&n=%d&nrhs=1&fingerprint=%s", w.base, warmN, w.warmFP[r.problem%warmOps])
		w.postAsync(cl, r, url, "application/octet-stream", tenant, w.warmRaw[r.problem/warmOps], done)
	case w.mixed: // background cold factorization
		body := w.patchBody(sender, r)
		url := fmt.Sprintf("%s/jobs?op=factorize&n=%d", w.base, w.coldN)
		w.postAsync(cl, r, url, "application/octet-stream", "bg", body[:8*len(w.coldA)], done)
	default:
		done(w.coldSolve(cl, sender, r))
	}
}

// patchBody makes the sender's upload buffer the operator of request r:
// the base matrix with one diagonal entry replaced (the previous request's
// replacement undone), followed by r's right-hand side.
func (w *serveWorkload) patchBody(sender int, r *serveOp) []byte {
	body, n := w.coldBody[sender], w.coldN
	if at := w.coldPatch[sender]; at >= 0 {
		binary.LittleEndian.PutUint64(body[8*(at+at*n):], math.Float64bits(w.coldA[at+at*n]))
	}
	binary.LittleEndian.PutUint64(body[8*(r.patchAt+r.patchAt*n):], math.Float64bits(r.patchTo))
	w.coldPatch[sender] = r.patchAt
	putFloats(body[8*len(w.coldA):], w.coldRHS[r.problem])
	return body
}

func post(cl *http.Client, url, ctype, tenant string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctype)
	req.Header.Set("X-Tenant", tenant)
	resp, err := cl.Do(req)
	if err != nil {
		return nil, err
	}
	return drain(resp, want)
}

// postAsync submits with POST /jobs (202) and parks one goroutine on the
// in-process WaitJob until the job is terminal.
func (w *serveWorkload) postAsync(cl *http.Client, r *serveOp, url, ctype, tenant string, body []byte, done func(error)) {
	t := time.Now()
	reply, err := post(cl, url, ctype, tenant, body, http.StatusAccepted)
	r.sent = time.Since(t)
	if err != nil {
		done(err)
		return
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(reply, &acc); err != nil || acc.ID == "" {
		done(fmt.Errorf("submit reply %q: %v", reply, err))
		return
	}
	r.id = acc.ID
	go func() {
		st, ok := w.srv.WaitJob(acc.ID)
		r.st = st
		switch {
		case !ok:
			done(fmt.Errorf("job %s unknown to the server", acc.ID))
		case st.State != "done":
			done(fmt.Errorf("job %s ended %s: %s", acc.ID, st.State, st.Error))
		default:
			done(nil)
		}
	}()
}

// coldSolve is serve_cold's operation: upload a unique operator and wait
// for the solve on the same connection, then fetch the solution.
func (w *serveWorkload) coldSolve(cl *http.Client, sender int, r *serveOp) error {
	body := w.patchBody(sender, r)
	url := fmt.Sprintf("%s/jobs?wait=1&op=solve&n=%d&nrhs=1", w.base, w.coldN)
	t := time.Now()
	reply, err := post(cl, url, "application/octet-stream", fmt.Sprintf("t%d", sender), body, http.StatusOK)
	r.sent = time.Since(t)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(reply, &r.st); err != nil {
		return fmt.Errorf("status reply: %w", err)
	}
	if r.st.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", r.st.ID, r.st.State, r.st.Error)
	}
	r.id = r.st.ID
	t = time.Now()
	resp, err := cl.Get(fmt.Sprintf("%s/jobs/%s/result?format=bin", w.base, r.id))
	if err != nil {
		return err
	}
	raw, err := drain(resp, http.StatusOK)
	r.resultD = time.Since(t)
	if err != nil {
		return err
	}
	r.x = make([]float64, len(raw)/8)
	for i := range r.x {
		r.x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return nil
}

func (w *serveWorkload) measure() (*pass, error) {
	p, _ := w.play(w.recs)
	return p, nil
}

// play runs a schedule and verifies every answer after the clock stops.
func (w *serveWorkload) play(recs []serveOp) (*pass, []opOutcome) {
	out, wall := runOpenLoop(w.bind(recs), nproc())
	p := &pass{wallS: wall.Seconds()}
	var normCold, normWarm = 0.0, make([]float64, len(w.warmA))
	for i, o := range out {
		r := &recs[i]
		p.lateMs = append(p.lateMs, msOf(o.late(r.due)))
		ok := o.err == nil
		if !ok {
			fmt.Fprintf(os.Stderr, "op %d (%s): %v\n", i, r.kind, o.err)
		}
		if !r.fg {
			p.bgDone++
			if !ok || r.st.Cache != "miss" {
				p.bgFail++
			}
			continue
		}
		if ok {
			ok = w.verify(r, &normCold, normWarm)
			if !ok {
				fmt.Fprintf(os.Stderr, "op %d (%s): answer rejected\n", i, r.kind)
			}
		}
		p.fg = append(p.fg, opResult{latencyMs: msOf(o.latency(r.due)), ok: ok})
	}
	return p, out
}

// verify checks one foreground answer against the operator the benchmark
// knows it sent.
func (w *serveWorkload) verify(r *serveOp, normCold *float64, normWarm []float64) bool {
	switch r.kind {
	case "tiny":
		x, err := w.srv.Result(r.id)
		if err != nil {
			return false
		}
		t := &w.tiny[r.problem]
		return solveBackwardError(t.n, t.a, x, t.b, normInfMat(t.n, t.n, t.a)) <= solveTol(t.n)
	case "warm":
		x, err := w.srv.Result(r.id)
		if err != nil {
			return false
		}
		k := r.problem % warmOps
		if normWarm[k] == 0 {
			normWarm[k] = normInfMat(warmN, warmN, w.warmA[k])
		}
		return r.st.Cache == "hit" &&
			solveBackwardError(warmN, w.warmA[k], x, w.warmRHS[r.problem/warmOps], normWarm[k]) <= solveTol(warmN)
	default: // cold solve: residual against the patched operator
		n := w.coldN
		if len(r.x) != n {
			return false
		}
		if *normCold == 0 {
			*normCold = normInfMat(n, n, w.coldA)
		}
		b := w.coldRHS[r.problem]
		res := residual(n, n, w.coldA, r.x, b)
		res[r.patchAt] -= (r.patchTo - w.coldA[r.patchAt+r.patchAt*n]) * r.x[r.patchAt]
		normA := *normCold + math.Abs(r.patchTo)
		be := normInfVec(res) / (normA*normInfVec(r.x) + normInfVec(b))
		return r.st.Cache == "miss" && be <= solveTol(n) // NaN compares false
	}
}

func (w *serveWorkload) trace(rec *recorder, _ map[string]float64) (map[string]float64, error) {
	// A fifth of the list, from the front of the same schedule.
	nFG, fg := w.cfg.traced(), 0
	var recs []serveOp
	for _, r := range w.recs {
		if r.fg {
			if fg == nFG {
				break
			}
			fg++
		}
		recs = append(recs, r)
	}

	before := w.srv.Metrics()
	epoch := time.Now()
	p, outc := w.play(recs)
	after := w.srv.Metrics()
	if f := p.failed(); f > 0 {
		return nil, fmt.Errorf("traced pass: %d of %d operations failed", f, p.attempted())
	}

	out := map[string]float64{}
	by := map[string][]float64{} // samples per "<what>.<kind>"
	var fgLat, qwait []float64
	var hit, miss float64
	t0 := rec.since(epoch)
	for i, o := range outc {
		r := &recs[i]
		// Spans: the request from its due time, the HTTP submit the benchmark
		// timed, and queue/run as the server's own status reports them,
		// anchored at the observed completion.
		root := rec.add("serve.request."+r.kind, i, -1, t0+r.due, t0+o.finished)
		submit := rec.add("serve.http.submit", i, root, t0+o.started, t0+o.started+r.sent)
		waitParent := root
		if r.resultD > 0 {
			waitParent = submit // wait=1: the POST stays open across queue and run
		}
		run := time.Duration(r.st.RunMs * 1e6)
		queue := time.Duration(r.st.QueueWaitMs * 1e6)
		end := t0 + o.finished - r.resultD
		rec.add("serve.wait.run", i, waitParent, end-run, end)
		rec.add("serve.wait.queue", i, waitParent, end-run-queue, end-run)
		if r.resultD > 0 {
			rec.add("serve.http.result", i, root, end, end+r.resultD)
			by["result"] = append(by["result"], msOf(r.resultD))
		}
		kind := r.kind
		by["run."+kind] = append(by["run."+kind], r.st.RunMs)
		if kind == "cold" && !w.mixed {
			// wait=1: the POST spans queue and run; the edge is what is left.
			by["submit."+kind] = append(by["submit."+kind], msOf(r.sent)-r.st.RunMs-r.st.QueueWaitMs)
		} else {
			by["submit."+kind] = append(by["submit."+kind], msOf(r.sent))
		}
		if r.fg {
			fgLat = append(fgLat, msOf(o.latency(r.due)))
			qwait = append(qwait, r.st.QueueWaitMs)
			switch r.st.Cache {
			case "hit":
				hit++
			case "miss":
				miss++
			}
		}
	}
	for _, kind := range []string{"tiny", "warm", "cold"} {
		if xs := by["submit."+kind]; len(xs) > 0 {
			out["serve.http.submit_ms."+kind] = median(xs)
		}
		if xs := by["run."+kind]; len(xs) > 0 {
			out["serve.run_p50_ms."+kind] = median(xs)
		}
	}
	out["serve.queue_wait_p50_ms"] = median(qwait)
	if tp, err := tailPercentile(len(qwait)); err == nil {
		out["serve.queue_wait_tail_ms"], _ = percentile(qwait, tp)
	}
	out["serve.hol_delayed_share"] = shareAbove(fgLat, holFactor*median(fgLat))
	// Shares and counts describe this pass and are set even when they are
	// 0: nothing hit the cache, the batcher stayed idle.
	out["serve.cache.hit_share"] = hit / math.Max(hit+miss, 1)
	counter := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	out["serve.cache.evictions"] = counter("serve.cache.evictions")
	out["serve.batch.flushes"] = counter("serve.batch.flushes")
	out["serve.batch.mean_size"] = counter("serve.batch.jobs") / math.Max(counter("serve.batch.flushes"), 1)
	out["serve.shed_share"] = counter("serve.shed_total") / math.Max(counter("serve.submitted"), 1)
	busy := float64(workerBusyNs(after.Counters) - workerBusyNs(before.Counters))
	// Default ServeConfig: two lanes and the batcher, each a runtime of
	// GOMAXPROCS/2 workers, all feeding the same sched.worker.* counters.
	out["serve.lane_busy_share"] = busy / (float64(nproc()) * p.wallS * 1e9)
	out["sched.busy_share"] = out["serve.lane_busy_share"]
	if tp, err := tailPercentile(len(p.lateMs)); err == nil {
		out["loadgen.late_tail_ms"], _ = percentile(p.lateMs, tp)
	}
	if xs := by["result"]; len(xs) > 0 {
		out["serve.http.result_ms"] = median(xs)
	}

	if err := w.edgeProbes(out); err != nil {
		return nil, err
	}
	return out, nil
}

// edgeProbes measures the HTTP edge on the live server after the traced
// pass: the same cold order-256 solve as a JSON and as a raw body, the
// result download, and a warm solve submitted in process.
func (w *serveWorkload) edgeProbes(out map[string]float64) error {
	rng := rand.New(rand.NewSource(w.cfg.seed + 1))
	cl := &http.Client{Timeout: serveTimeout}
	defer cl.CloseIdleConnections()
	const n = coldN
	var jsonMBs, rawMBs, resultMs []float64
	for rep := 0; rep < 3; rep++ {
		a, b := exadla.RandomSPD(rng, n).Data(), exadla.RandomGeneral(rng, n, 1).Data()
		for _, asJSON := range []bool{true, false} {
			a[0] *= 1.5 // a new operator each time: both bodies must miss the cache
			var body []byte
			url, ctype := w.base+"/jobs?wait=1", "application/json"
			if asJSON {
				var err error
				if body, err = json.Marshal(exadla.ServeJob{Op: exadla.ServeSolveSPD, N: n, NRHS: 1, A: a, B: b}); err != nil {
					return err
				}
			} else {
				body = append(rawFloats(a), rawFloats(b)...)
				url += fmt.Sprintf("&op=solve&n=%d&nrhs=1", n)
				ctype = "application/octet-stream"
			}
			t := time.Now()
			reply, err := post(cl, url, ctype, "probe", body, http.StatusOK)
			d := msOf(time.Since(t))
			if err != nil {
				return fmt.Errorf("edge probe: %w", err)
			}
			var st exadla.ServeStatus
			if err := json.Unmarshal(reply, &st); err != nil || st.State != "done" {
				return fmt.Errorf("edge probe: job ended %q: %v", st.State, err)
			}
			// What the POST cost beyond the server's own queue and run time,
			// as a rate over the body: upload, decode, admission, reply.
			mbs := float64(len(body)) / 1e6 / (math.Max(d-st.RunMs-st.QueueWaitMs, 1e-3) / 1e3)
			if asJSON {
				jsonMBs = append(jsonMBs, mbs)
			} else {
				rawMBs = append(rawMBs, mbs)
			}
			t = time.Now()
			resp, err := cl.Get(fmt.Sprintf("%s/jobs/%s/result?format=bin", w.base, st.ID))
			if err != nil {
				return err
			}
			if _, err := drain(resp, http.StatusOK); err != nil {
				return fmt.Errorf("edge probe result: %w", err)
			}
			resultMs = append(resultMs, msOf(time.Since(t)))
		}
	}
	out["serve.http.decode_json_mbs"] = median(jsonMBs)
	out["serve.http.decode_raw_mbs"] = median(rawMBs)
	if _, ok := out["serve.http.result_ms"]; !ok {
		out["serve.http.result_ms"] = median(resultMs)
	}

	// The warm request without the HTTP edge.
	a := exadla.RandomSPD(rng, warmN).Data()
	id, err := w.srv.Submit("probe", exadla.ServeJob{Op: exadla.ServeFactorSPD, N: warmN, A: a})
	if err != nil {
		return err
	}
	st, _ := w.srv.WaitJob(id)
	if st.State != "done" {
		return fmt.Errorf("edge probe: pre-load ended %s: %s", st.State, st.Error)
	}
	b := exadla.RandomGeneral(rng, warmN, 1).Data()
	inproc := make([]float64, 30)
	for i := range inproc {
		t := time.Now()
		id, err := w.srv.Submit("probe", exadla.ServeJob{Op: exadla.ServeSolveSPD, N: warmN, NRHS: 1, Fingerprint: st.Fingerprint, B: append([]float64(nil), b...)})
		if err != nil {
			return err
		}
		if s, _ := w.srv.WaitJob(id); s.State != "done" {
			return fmt.Errorf("edge probe: warm solve ended %s: %s", s.State, s.Error)
		}
		inproc[i] = msOf(time.Since(t))
	}
	out["serve.inproc_p50_ms.warm"] = median(inproc)
	return nil
}
