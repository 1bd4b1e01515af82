package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentScrapeDuringRecording drives the Prometheus and JSON
// handlers while writer goroutines hammer counters, gauges, histograms
// and labeled families. Under -race this
// is the proof that a scrape never tears concurrent recording; the
// final scrape must also see exact counter totals.
func TestConcurrentScrapeDuringRecording(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	ctr := reg.Counter("scrape_test_total", "writes")
	vec := reg.CounterVec("scrape_test_by_class_total", "writes by class", "class")
	g := reg.Gauge("scrape_test_gauge", "last value")
	fh := reg.LogHistogram("scrape_test_hist", "unlabeled")
	lh := reg.LogHistogramVec("scrape_test_lat_seconds", "log-bucketed", "class", "tenant")

	const writers, per = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Scrapers: alternate /metrics and /debug/vars until writers finish.
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			paths := []string{"/metrics", "/debug/vars"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := srv.Client().Get(srv.URL + paths[(s+i)%2])
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("scrape status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}(s)
	}

	classes := []string{"sha1", "lzw", "dmc"}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < per; i++ {
				ctr.Inc()
				vec.With(classes[i%len(classes)]).Inc()
				g.Set(float64(i))
				fh.Observe(float64(i) * 1e-6)
				lh.With(classes[i%len(classes)], "t0").Observe(float64(i+1) * 1e-5)
				if i%256 == 0 {
					runtime.Gosched()
				}
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	// Quiesced: the final scrape must be exact.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	if want := "scrape_test_total 16000"; !strings.Contains(out, want) {
		t.Errorf("final scrape missing %q", want)
	}
	if want := `scrape_test_lat_seconds_count{class="sha1",tenant="t0"}`; !strings.Contains(out, want) {
		t.Errorf("final scrape missing %q", want)
	}
	// The GoRuntime bridge must have produced eewa_go_* gauges.
	if !strings.Contains(out, "eewa_go_goroutines") {
		t.Errorf("GoRuntime bridge produced no eewa_go_goroutines:\n%s", out[:min(len(out), 2000)])
	}

	// JSON view decodes and carries quantiles for the log histogram.
	resp, err = srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	kids, ok := snap["scrape_test_lat_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("vars scrape_test_lat_seconds = %T", snap["scrape_test_lat_seconds"])
	}
	child, ok := kids["class=sha1,tenant=t0"].(map[string]any)
	if !ok {
		t.Fatalf("vars missing sha1/t0 child: %v", kids)
	}
	if child["p99"].(float64) <= 0 {
		t.Errorf("child p99 = %v, want > 0", child["p99"])
	}
}

func TestGoRuntimeMetricsBridge(t *testing.T) {
	reg := NewRegistry()
	b := NewGoRuntimeMetrics(reg)
	if len(b.Names()) == 0 {
		t.Fatal("no runtime metrics supported by this toolchain")
	}
	// Force some allocation and a GC so the gauges have signal.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	runtime.GC()
	runtime.KeepAlive(sink)
	b.Sample()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"eewa_go_goroutines", "eewa_go_heap_objects_bytes", "eewa_go_gc_cycles_total"} {
		if !strings.Contains(out, name+" ") {
			t.Errorf("bridge export missing %s\n%s", name, out)
		}
	}
	if v, ok := reg.At("eewa_go_goroutines").(*Gauge); !ok || v.Value() < 1 {
		t.Errorf("eewa_go_goroutines = %v, want ≥ 1", v.Value())
	}
	// Nil bridge and nil registry no-op.
	var nb *GoRuntimeMetrics
	nb.Sample()
	NewGoRuntimeMetrics(nil).Sample()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
