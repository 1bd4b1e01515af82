package obs

import (
	"bytes"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Handler returns an http.Handler exposing the registry:
//
//	/metrics      — Prometheus text exposition
//	/debug/vars   — JSON snapshot of every family
//	/debug/pprof  — the standard Go profiling endpoints (CPU, heap,
//	                block, goroutine)
//
// The first /metrics or /debug/vars render registers the Go runtime
// bridge (GoRuntimeMetrics: goroutines, heap bytes, GC cycles and
// pauses, scheduling latency as eewa_go_* gauges) on r, and every
// render re-samples it first, so the bridge costs nothing between
// scrapes and a registry nobody scrapes never carries the gauges.
// The handler is safe to serve while the registry is being written.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	var (
		bridgeOnce sync.Once
		bridge     *GoRuntimeMetrics
	)
	sample := func() {
		bridgeOnce.Do(func() { bridge = NewGoRuntimeMetrics(r) })
		bridge.Sample()
	}
	// Both exports render into a buffer first: a render error can then
	// still become a 500 instead of a silently truncated 200 (once body
	// bytes are on the wire the status is committed).
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		sample()
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			http.Error(w, "rendering metrics: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		sample()
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			http.Error(w, "encoding vars: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts an HTTP server for Handler(r) on
// addr (":0" picks a free port). It returns the bound address and a
// shutdown function. The server runs until the shutdown function is
// called.
func Serve(addr string, r *Registry) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: Handler(r), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), srv.Close, nil
}
