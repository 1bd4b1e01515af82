package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerMetrics(t *testing.T) {
	reg := buildSample()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()
	// The Go runtime bridge registers on the first render, never
	// before: a registry nobody scrapes carries no eewa_go_* gauge.
	var before strings.Builder
	if err := reg.WritePrometheus(&before); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(before.String(), "eewa_go_") {
		t.Errorf("eewa_go_* registered before any scrape:\n%s", before.String())
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), "jobs_total 3") {
		t.Errorf("/metrics body:\n%s", body)
	}
	if g, ok := reg.At("eewa_go_goroutines").(*Gauge); !ok || g.Value() < 1 {
		t.Errorf("the first scrape left eewa_go_goroutines unsampled: %v", reg.At("eewa_go_goroutines"))
	}
}

// TestHandlerDebugVars pins /debug/vars: the registry's WriteJSON
// bytes (the scrape samples the runtime gauges first, nothing after),
// which parse as the snapshot.
func TestHandlerDebugVars(t *testing.T) {
	reg := buildSample()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := reg.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("/debug/vars differs from WriteJSON:\n%s\nwant:\n%s", body, want.Bytes())
	}
	var snap map[string]any
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/debug/vars does not parse: %v", err)
	}
	if snap["jobs_total"] != 3.0 {
		t.Errorf("jobs_total = %v", snap["jobs_total"])
	}
}

func TestServe(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0", buildSample())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "depth 7") {
		t.Errorf("served metrics:\n%s", body)
	}
	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
	if _, err := http.Get("http://" + addr.String() + "/metrics"); err == nil {
		t.Error("server still reachable after stop")
	}
}

// The exposition endpoints must declare their media types — Prometheus
// scrapers key the parser off text/plain; version=0.0.4 — and render
// into a buffer so an export error becomes a 500 rather than a
// truncated 200.
func TestHandlerContentTypes(t *testing.T) {
	srv := httptest.NewServer(Handler(buildSample()))
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":    "text/plain; version=0.0.4; charset=utf-8",
		"/debug/vars": "application/json; charset=utf-8",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != want {
			t.Errorf("%s Content-Type = %q, want %q", path, ct, want)
		}
	}
}

// A nil registry is the documented no-op mode; the handler must still
// serve well-formed (empty) responses.
func TestHandlerNilRegistry(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/vars"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d with nil registry", path, resp.StatusCode)
		}
	}
}
