package exadla

import (
	"log/slog"

	"exadla/internal/obs"
	"exadla/internal/trace"
)

// WithObsServer starts a live observability HTTP server on addr (host:port;
// port 0 picks an ephemeral port, reported by Context.ObsAddr) for the
// lifetime of the Context. The server exposes:
//
//	/metrics        process metrics, Prometheus text format
//	                (append ?format=json for the JSON snapshot)
//	/trace          the live trace as Chrome/Perfetto JSON, or the native
//	                form with ?format=events (requires WithTracing; 404
//	                otherwise)
//	/healthz        JSON liveness report
//	/debug/pprof/   net/http/pprof CPU, heap, and goroutine profiling
//
// A failure to bind the address panics, like other misconfigured options:
// silently running without the requested introspection would be worse.
func WithObsServer(addr string) Option {
	return func(c *Context) { c.obsAddr = addr }
}

// WithEventLog routes scheduler failure events — retries, permanent
// failures, chaos injections, ABFT corruption corrections — through the
// given structured logger: retried attempts at Warn, permanent failures at
// Error, each carrying kernel, seq, attempt, kind, and error attributes.
// A nil logger uses slog.Default().
func WithEventLog(l *slog.Logger) Option {
	return func(c *Context) {
		if l == nil {
			l = slog.Default()
		}
		c.eventLog = l
	}
}

// ObsAddr returns the observability server's actual listen address, or ""
// when WithObsServer was not used. Useful with port 0.
func (c *Context) ObsAddr() string {
	if c.obs == nil {
		return ""
	}
	return c.obs.Addr()
}

// startObs starts the observability server if one was requested.
func (c *Context) startObs() {
	if c.obsAddr == "" {
		return
	}
	var tl func() *trace.Log
	if c.log != nil {
		tl = func() *trace.Log { return c.log }
	}
	s, err := obs.Start(c.obsAddr, obs.Options{
		Trace: tl,
		Health: func() map[string]any {
			fs := c.FaultStats()
			return map[string]any{
				"workers":      c.workers,
				"tasks_failed": fs.Failed,
			}
		},
	})
	if err != nil {
		panic("exadla: " + err.Error())
	}
	c.obs = s
}
