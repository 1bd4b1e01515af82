package obs

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// HandlerOptions selects the optional debug surfaces mounted next to
// the metrics endpoints.
type HandlerOptions struct {
	// Pprof mounts the standard net/http/pprof endpoints under
	// /debug/pprof/ — the profile taps to point at a hot run (CPU,
	// heap, block, goroutine).
	Pprof bool
	// GoRuntime bridges runtime/metrics (goroutines, heap bytes, GC
	// cycles/pauses, scheduling latency) into the registry as eewa_go_*
	// gauges, re-sampled immediately before every /metrics and
	// /debug/vars render.
	GoRuntime bool
}

// Handler returns an http.Handler exposing the registry:
//
//	/metrics      — Prometheus text exposition
//	/debug/vars   — JSON snapshot of every family (plus events when the
//	                registry's sink is a *Ring, under "events")
//	/debug/pprof  — the standard Go profiling endpoints
//
// The handler is safe to serve while the registry is being written.
// Handler keeps the historical surface (pprof on, runtime bridge off);
// use HandlerWith to choose.
func Handler(r *Registry) http.Handler {
	return HandlerWith(r, HandlerOptions{Pprof: true})
}

// HandlerWith returns an http.Handler for the registry with the given
// debug surfaces enabled.
func HandlerWith(r *Registry, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	var goMetrics *GoRuntimeMetrics
	if opts.GoRuntime {
		goMetrics = NewGoRuntimeMetrics(r)
	}
	// Both exports render into a buffer first: a render error can then
	// still become a 500 instead of a silently truncated 200 (once body
	// bytes are on the wire the status is committed).
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		goMetrics.Sample()
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			http.Error(w, "rendering metrics: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		goMetrics.Sample()
		snap := r.Snapshot()
		if r != nil {
			if ring, ok := r.Events.(*Ring); ok {
				snap["events"] = ring.Events()
			}
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			http.Error(w, "encoding vars: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	})
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Serve starts an HTTP server for Handler(r) on addr (":0" picks a free
// port). It returns the bound address and a shutdown function. The
// server runs until the shutdown function is called.
func Serve(addr string, r *Registry) (net.Addr, func() error, error) {
	return ServeWith(addr, r, HandlerOptions{Pprof: true})
}

// ServeWith is Serve with explicit HandlerOptions.
func ServeWith(addr string, r *Registry, opts HandlerOptions) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: HandlerWith(r, opts), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), srv.Close, nil
}
