package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// handler builds the service mux:
//
//	POST /jobs              submit (JSON body, or raw float64 with query params);
//	                        ?wait=1 blocks until terminal and returns the status
//	GET  /jobs/{id}         status (?watch=1 streams NDJSON until terminal)
//	GET  /jobs/{id}/result  solution vector (?format=bin for raw float64 LE)
//	GET  /metrics           Prometheus text (?format=json for a JSON snapshot)
//	GET  /healthz           liveness + queue/cache occupancy
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func jsonError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	var err error
	if r.Header.Get("Content-Type") == "application/octet-stream" {
		spec, err = specFromRaw(r)
	} else {
		err = json.NewDecoder(r.Body).Decode(&spec)
	}
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.Submit(r.Header.Get("X-Tenant"), spec)
	if err != nil {
		var shed *ShedError
		if errors.As(err, &shed) {
			secs := int(shed.RetryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":          err.Error(),
				"retry_after_ms": shed.RetryAfter.Milliseconds(),
			})
			return
		}
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		st, _ := s.WaitJob(id)
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

// errRaw marks every rejection of a raw submission; handleSubmit answers
// them all with 400.
var errRaw = errors.New("raw submit")

// rawChunk is the most float64s (8 MiB) the raw decoder allocates before
// the body has sent them; past it the buffer doubles only as the body fills
// it, so a body that stops short holds at most max(8 MiB, 2× its bytes).
const rawChunk = 1 << 20

// specFromRaw parses the zero-copy submission form: op/n/nrhs/fingerprint
// as query parameters and the body as little-endian float64s — A (n×n,
// column-major) first unless a fingerprint stands in for it, then B
// (n×nrhs) for solve ops. The body must be exactly that long; the size is
// known, and a disagreeing Content-Length refused, before anything is
// allocated. The floats are read straight into A's memory.
func specFromRaw(r *http.Request) (JobSpec, error) {
	q := r.URL.Query()
	spec := JobSpec{Op: Op(q.Get("op")), Fingerprint: q.Get("fingerprint")}
	var err error
	if spec.N, err = strconv.Atoi(q.Get("n")); err != nil {
		return spec, fmt.Errorf("%w: bad n: %w", errRaw, err)
	}
	if v := q.Get("nrhs"); v != "" {
		if spec.NRHS, err = strconv.Atoi(v); err != nil {
			return spec, fmt.Errorf("%w: bad nrhs: %w", errRaw, err)
		}
	}
	if err := spec.checkDims(); err != nil {
		return spec, fmt.Errorf("%w: %w", errRaw, err)
	}
	na, nb := 0, 0 // floats of A and of B in the body; checkDims bounds both
	if spec.Fingerprint == "" {
		na = spec.N * spec.N
	}
	if spec.Op.solves() {
		nb = spec.N * spec.NRHS
	}
	count := na + nb
	if r.ContentLength >= 0 && r.ContentLength != 8*int64(count) {
		return spec, fmt.Errorf("%w: Content-Length is %d bytes, want %d for n=%d, nrhs=%d", errRaw, r.ContentLength, 8*count, spec.N, spec.NRHS)
	}
	vals, err := readFloats(r.Body, count)
	if err != nil {
		return spec, err
	}
	if na > 0 {
		spec.A = vals[:na:na]
	}
	if spec.Op.solves() {
		// B gets memory of its own when A is present: a batched solve's
		// result is B, and it must not hold A's buffer after A is dropped.
		spec.B = vals[na:]
		if na > 0 {
			spec.B = append([]float64(nil), spec.B...)
		}
	}
	if err := spec.check(); err != nil {
		return spec, fmt.Errorf("%w: %w", errRaw, err)
	}
	return spec, nil
}

// readFloats reads exactly count little-endian float64s from body into the
// returned slice through its byte view. The slice starts at min(count,
// rawChunk) elements and doubles when the body has filled it, so a client
// that declares a huge operator but sends little costs little.
func readFloats(body io.Reader, count int) ([]float64, error) {
	vals := make([]float64, min(count, rawChunk))
	got := 0
	for {
		n, err := io.ReadFull(body, byteView(vals)[got:])
		got += n
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			return nil, fmt.Errorf("%w: body is %d bytes, want %d", errRaw, got, 8*count)
		case err != nil:
			return nil, fmt.Errorf("%w: reading body: %w", errRaw, err)
		}
		if len(vals) == count {
			break
		}
		grown := make([]float64, min(count, 2*len(vals)))
		copy(grown, vals)
		vals = grown
	}
	var one [1]byte
	if n, _ := io.ReadFull(body, one[:]); n > 0 {
		return nil, fmt.Errorf("%w: body is longer than the %d bytes it should be", errRaw, 8*count)
	}
	if !nativeLE {
		swapBytes(vals)
	}
	return vals, nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Status(id)
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Errorf("no job %s", id))
		return
	}
	if r.URL.Query().Get("watch") != "1" {
		writeJSON(w, http.StatusOK, st)
		return
	}
	// Stream NDJSON status lines until the job is terminal (or the client
	// goes away), so progress — tasks done, state transitions — is visible
	// live without polling.
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		st, _ = s.Status(id)
		if err := enc.Encode(st); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.State == StateDone.String() || st.State == StateFailed.String() {
			return
		}
		select {
		case <-tick.C:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Status(id)
	if !ok {
		jsonError(w, http.StatusNotFound, fmt.Errorf("no job %s", id))
		return
	}
	x, err := s.Result(id)
	if err != nil {
		switch st.State {
		case StateQueued.String(), StateRunning.String():
			jsonError(w, http.StatusConflict, err)
		default:
			jsonError(w, http.StatusInternalServerError, err)
		}
		return
	}
	if r.URL.Query().Get("format") == "bin" {
		if !nativeLE {
			x = append([]float64(nil), x...)
			swapBytes(x)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(8*len(x)))
		_, _ = w.Write(byteView(x))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "n": st.N, "nrhs": st.NRHS, "x": x})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = snap.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = snap.WritePrometheus(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	pending := s.pending
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"pending":       pending,
		"cache_entries": s.cache.len(),
		"lanes":         s.cfg.Lanes,
	})
}
