// Package obs is the live observability server: an opt-in HTTP endpoint a
// running factorization can be inspected through without stopping it —
// metrics in Prometheus text or JSON form, the one trace log it was given
// (in-process, merged cluster, or a worker's mirror) as a Chrome/Perfetto
// or native JSON download, a health probe, and net/http/pprof for CPU and
// heap profiling. Production systems are profiled in production; this is
// the repo's answer to that requirement.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"exadla/internal/metrics"
	"exadla/internal/trace"
)

// Options configures a Server. The zero value serves the default metrics
// registry and no trace.
type Options struct {
	// Registry is the metrics registry /metrics exposes; nil means the
	// package default registry.
	Registry *metrics.Registry
	// Trace, when non-nil, enables /trace: it is called per request and
	// returns the log to serve — a Context's live in-process trace, a dist
	// coordinator's merged multi-process ClusterLog, or a worker's span
	// mirror — as Chrome trace JSON, or as the native events format with
	// ?format=events.
	Trace func() *trace.Log
	// Dist, when non-nil, enables /dist serving its return value as a JSON
	// document — the live cluster status (workers, leases, evictions,
	// counters) of a distributed coordinator.
	Dist func() any
	// Health, when non-nil, contributes extra fields to the /healthz body.
	Health func() map[string]any
	// ReadHeaderTimeout bounds how long an accepted connection may sit
	// without sending its request headers before the server closes it, so an
	// idle or stalled client cannot hold a connection open forever. Zero
	// means the 10s default.
	ReadHeaderTimeout time.Duration
}

// closeTimeout bounds how long Close waits for in-flight requests to drain
// before falling back to a hard close.
const closeTimeout = 3 * time.Second

// Server is a running observability HTTP server.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// Start listens on addr (host:port; use port 0 for an ephemeral port) and
// serves the observability endpoints in a background goroutine:
//
//	/metrics        Prometheus text format (?format=json for a JSON snapshot)
//	/trace          Chrome trace-event JSON of the trace log
//	                (?format=events for the native re-loadable form)
//	/dist           JSON cluster status (workers, leases, evictions)
//	/healthz        JSON liveness report
//	/debug/pprof/   the standard net/http/pprof handlers
func Start(addr string, opt Options) (*Server, error) {
	reg := opt.Registry
	if reg == nil {
		reg = metrics.Default()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, start: time.Now()}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = snap.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = snap.WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if opt.Trace == nil {
			http.Error(w, "tracing not enabled", http.StatusNotFound)
			return
		}
		l := opt.Trace()
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("format") == "events" {
			w.Header().Set("Content-Disposition", `attachment; filename="exadla-events.json"`)
			_ = l.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Disposition", `attachment; filename="exadla-trace.json"`)
		_ = l.WriteChrome(w)
	})
	mux.HandleFunc("/dist", func(w http.ResponseWriter, r *http.Request) {
		if opt.Dist == nil {
			http.Error(w, "no distributed job", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(opt.Dist())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		body := map[string]any{
			"status":     "ok",
			"uptime_s":   time.Since(s.start).Seconds(),
			"goroutines": runtime.NumGoroutine(),
		}
		if opt.Health != nil {
			for k, v := range opt.Health() {
				body[k] = v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	rht := opt.ReadHeaderTimeout
	if rht <= 0 {
		rht = 10 * time.Second
	}
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: rht}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's actual listen address (resolving port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server gracefully: it stops accepting new connections and
// waits up to the close timeout for in-flight requests — a /trace download
// mid-run, a pprof profile — to finish, instead of truncating them the way
// http.Server.Close would. Requests still running at the deadline are cut
// off by the hard-close fallback. Safe on a nil receiver.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
