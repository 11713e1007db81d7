package telemetry

// The debug server exposes the default registry and the runtime's own
// introspection endpoints over HTTP for long sweeps:
//
//	/metrics      deterministic text snapshot (same as -metrics)
//	/metrics.json the snapshot as JSON
//	/debug/vars   expvar (includes the registry under "telemetry")
//	/debug/pprof  net/http/pprof profiles
//
// The endpoints register on a caller-supplied mux (RegisterDebug) so the
// serving daemon can mount them next to its API routes, or on a private
// mux served standalone (ServeDebug) — nothing is ever registered on
// http.DefaultServeMux, so importing this package never changes a host
// program's routing.

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

var publishOnce sync.Once

// PublishExpvar exposes the default registry's snapshot as the expvar
// variable "telemetry". Idempotent; called automatically by RegisterDebug.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("telemetry", expvar.Func(func() any {
			return Default().Snapshot()
		}))
	})
}

// RegisterDebug registers the debug endpoints on mux, snapshotting the
// default registry; it is RegisterDebugIn(mux, Default()).
func RegisterDebug(mux *http.ServeMux) { RegisterDebugIn(mux, Default()) }

// RegisterDebugIn registers /metrics, /metrics.json, /debug/vars, and the
// /debug/pprof family on mux, with the snapshot endpoints reading reg.
// (/debug/vars always reports the process-wide expvar state, which carries
// the default registry under "telemetry".)
func RegisterDebugIn(mux *http.ServeMux, reg *Registry) {
	PublishExpvar()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.Snapshot().WriteText(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.Snapshot().WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// DebugMux returns a fresh mux with the debug endpoints registered against
// the default registry.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	RegisterDebug(mux)
	return mux
}

// ServeDebug starts the debug HTTP server on addr (host:port; use ":0"
// for an ephemeral port) and returns the bound address. The server runs
// until the process exits.
func ServeDebug(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: metrics server: %w", err)
	}
	srv := debugServer()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// debugServer builds the standalone debug server, with the serving
// daemon's header timeout so a slow client cannot pin a connection.
func debugServer() *http.Server {
	return &http.Server{Handler: DebugMux(), ReadHeaderTimeout: 10 * time.Second}
}
