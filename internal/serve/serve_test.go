package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profile"
)

func testServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Workers: 4,
		Machine: machine.Opteron16(),
		Policy:  "eewa",
		Seed:    7,
		Obs:     obs.NewRegistry(),
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, url string, req JobRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestSubmitRunsJob(t *testing.T) {
	s, ts := testServer(t, nil)
	resp, body := submit(t, ts.URL, JobRequest{Func: "sha1", Count: 3, SizeBytes: 2048})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 3 || res.TasksRun != 3 || res.Policy != "eewa" || res.EnergyJ <= 0 {
		t.Errorf("result %+v", res)
	}
	st := s.Stats()
	if st.Admitted != 1 || st.Completed != 1 || st.Tasks != 3 {
		t.Errorf("stats %+v", st)
	}
	drain(t, s)
}

// A burst that overflows the per-tenant queue must surface as 429s
// with a Retry-After header and eewa_serve_rejected_total increments —
// and every job that WAS admitted still completes.
func TestBackpressureBurst(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, func(c *Config) {
		c.Obs = reg
		c.QueueDepth = 8
		c.MaxInFlight = 16
		c.FlushEvery = 50 * time.Millisecond
	})

	const burst = 48
	var ok, rejected, retryAfterMissing atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := submit(t, ts.URL, JobRequest{Func: "md5", Count: 2, SizeBytes: 512, Seed: uint64(i)})
			switch resp.StatusCode {
			case 200:
				ok.Add(1)
			case 429:
				rejected.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					retryAfterMissing.Add(1)
				}
				var eb errorBody
				if err := json.Unmarshal(body, &eb); err != nil || eb.RetryAfter < 1 {
					t.Errorf("429 body %s", body)
				}
			default:
				t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	drain(t, s)

	if rejected.Load() == 0 {
		t.Error("burst never overflowed the queue (no 429s) — backpressure untested")
	}
	if retryAfterMissing.Load() != 0 {
		t.Errorf("%d rejections lacked Retry-After", retryAfterMissing.Load())
	}
	if ok.Load() == 0 {
		t.Error("every job was rejected — admission never succeeded")
	}
	st := s.Stats()
	if st.Admitted != uint64(ok.Load()) || st.Rejected != uint64(rejected.Load()) {
		t.Errorf("stats %+v vs ok=%d rejected=%d", st, ok.Load(), rejected.Load())
	}
	if st.Tasks != 2*uint64(ok.Load()) {
		t.Errorf("tasks_run = %d, want %d (zero lost/duplicated)", st.Tasks, 2*ok.Load())
	}
	// The metric must agree with the HTTP-observed rejections.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `eewa_serve_rejected_total{reason="tenant_queue_full"}`) &&
		!strings.Contains(buf.String(), `eewa_serve_rejected_total{reason="inflight_budget"}`) {
		t.Errorf("rejected_total not exported:\n%s", buf.String())
	}
}

// Drain mid-batch: every admitted job completes exactly once (task
// conservation, enforced by the internal/check invariants on the
// runtime), late submissions get 503, and the batcher goroutine exits.
func TestDrainMidBatchConservesTasks(t *testing.T) {
	before := runtime.NumGoroutine()
	s, ts := testServer(t, func(c *Config) {
		c.Invariants = true
		c.FlushEvery = 5 * time.Millisecond
		c.MaxInFlight = 4096
		c.QueueDepth = 4096
	})

	var ok, late atomic.Int64
	var tasksOK atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				resp, body := submit(t, ts.URL, JobRequest{
					Tenant: fmt.Sprintf("t%d", g%3), Func: "sha1", Count: 4,
					SizeBytes: 16 << 10, Seed: uint64(g*100 + i),
				})
				switch resp.StatusCode {
				case 200:
					ok.Add(1)
					var res JobResult
					if err := json.Unmarshal(body, &res); err != nil {
						t.Error(err)
						continue
					}
					if res.TasksRun != res.Tasks {
						t.Errorf("drained job lost tasks: %+v", res)
					}
					tasksOK.Add(int64(res.Tasks))
				case 503:
					late.Add(1)
				default:
					t.Errorf("status %d: %s", resp.StatusCode, body)
				}
			}
		}(g)
	}
	// Drain once work is genuinely in flight (polling beats a fixed
	// sleep under -race, where everything runs slower).
	waitUntil := time.Now().Add(10 * time.Second)
	for time.Now().Before(waitUntil) && s.Stats().Admitted < 8 {
		time.Sleep(2 * time.Millisecond)
	}
	drain(t, s)
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no job completed before the drain")
	}
	if late.Load() == 0 {
		t.Log("note: drain landed after the last submission (no 503s observed)")
	}
	st := s.Stats()
	if st.Completed != uint64(ok.Load()) || st.Tasks != uint64(tasksOK.Load()) {
		t.Errorf("stats %+v vs ok=%d tasksOK=%d — lost or duplicated work", st, ok.Load(), tasksOK.Load())
	}
	if vs := s.Runtime().Violations(); len(vs) != 0 {
		t.Errorf("runtime invariant violations across drain: %v", vs)
	}

	// A second drain is a no-op, and after the HTTP server closes no
	// service goroutines may linger.
	drain(t, s)
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after drain+close", before, runtime.NumGoroutine())
}

// A deadline that expires while the job is still queued must cancel it
// before any task starts: 504, eewa_serve_timeout_total, zero payloads.
// A job queued behind a running batch whose deadline passes before the
// shard is free: the handler answers 504 when the deadline fires, and
// the batcher drops the job unstarted when it gets to it.
func TestDeadlineExpiresWhileQueued(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, func(c *Config) { c.Obs = reg })
	p := newProbe(t)
	held := p.hold(t, ts.URL) // the shard is inside a batch until release

	start := time.Now()
	resp, body := submit(t, ts.URL, JobRequest{Func: "lzw", Count: 2, DeadlineMS: 30})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if el := time.Since(start); el > 300*time.Millisecond {
		t.Errorf("504 took %v — deadline did not cancel the queued job", el)
	}
	if got := counterAt(t, reg, "eewa_serve_cancelled_jobs_total", "deadline"); got != 1 {
		t.Errorf("deadline cancellation counter = %g, want 1", got)
	}
	p.release()
	if st := <-held; st != 200 {
		t.Errorf("the job holding the shard answered %d", st)
	}
	drain(t, s)
	st := s.Stats()
	if st.Admitted != 2 {
		t.Errorf("admitted %d jobs, want 2 (the expired job was queued, not refused)", st.Admitted)
	}
	if st.Tasks != 1 { // the one task that held the shard
		t.Errorf("cancelled job still ran: %d tasks run, want 1", st.Tasks)
	}
	if st.Timeouts == 0 {
		t.Error("timeout not counted")
	}
}

func TestSubmitValidation(t *testing.T) {
	s, ts := testServer(t, nil)
	cases := []JobRequest{
		{Func: "nope"},
		{Func: "sha1", Count: 100000},
		{Func: "sha1", SizeBytes: maxSizeBytes + 1},
		{Func: "sha1", DeadlineMS: -1},
	}
	for _, req := range cases {
		resp, body := submit(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v → status %d: %s", req, resp.StatusCode, body)
		}
	}
	// Unknown fields are rejected too (strict API).
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"func":"sha1","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field → status %d", resp.StatusCode)
	}
	drain(t, s)
}

func TestHealthzFlipsOnDrain(t *testing.T) {
	s, ts := testServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz = %d before drain", resp.StatusCode)
	}
	drain(t, s)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz = %d after drain", resp.StatusCode)
	}
	// And submissions now bounce with 503 + Retry-After.
	resp2, body := submit(t, ts.URL, JobRequest{Func: "sha1"})
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") == "" {
		t.Errorf("post-drain submit: status %d, Retry-After %q, body %s",
			resp2.StatusCode, resp2.Header.Get("Retry-After"), body)
	}
}

// The offline-profile ingestion fix, end to end: a MaxWork=0 snapshot
// must fail server construction instead of silently configuring EEWA.
func TestNewRejectsCorruptOfflineSnapshot(t *testing.T) {
	mc := machine.Opteron16()
	bad := &profile.Snapshot{
		Freqs: []float64(mc.Freqs),
		T:     0.01,
		Classes: []profile.Class{
			{Name: "sha1", Count: 8, AvgWork: 1e-3, MaxWork: 0},
		},
	}
	_, err := New(Config{Workers: 4, Machine: mc, Policy: "eewa", Offline: bad})
	if err == nil {
		t.Fatal("corrupt offline snapshot accepted")
	}
	if !strings.Contains(err.Error(), "max work") {
		t.Errorf("error should blame max work: %v", err)
	}

	good := &profile.Snapshot{
		Freqs: []float64(mc.Freqs),
		T:     0.01,
		Classes: []profile.Class{
			{Name: "sha1", Count: 8, AvgWork: 1e-3, MaxWork: 1.2e-3},
		},
	}
	s, err := New(Config{Workers: 4, Machine: mc, Policy: "eewa", Offline: good})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s)

	// And a non-EEWA policy with an offline profile is a loud error,
	// not a silent no-op.
	if _, err := New(Config{Workers: 4, Machine: mc, Policy: "cilk", Offline: good}); err == nil {
		t.Error("offline profile with cilk should be rejected")
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, ts := testServer(t, nil)
	submit(t, ts.URL, JobRequest{Func: "dmc", SizeBytes: 1024})
	resp, body := func() (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out
	}()
	if resp.StatusCode != 200 {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Policy != "eewa" || st.Workers != 4 || st.Admitted != 1 {
		t.Errorf("stats %+v", st)
	}
	drain(t, s)
}

// TestRequestSpansAndEnergyAttribution submits jobs from two tenants
// running different kernels and checks the span histograms, the
// per-tenant energy attribution, JobResult.EnergyAttrJ and
// LatencySummary.
func TestRequestSpansAndEnergyAttribution(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, func(c *Config) {
		c.Obs = reg
		c.FlushEvery = 5 * time.Millisecond
		c.Invariants = true
	})

	type sub struct {
		tenant, fn string
	}
	subs := []sub{{"acme", "sha1"}, {"acme", "lzw"}, {"globex", "sha1"}, {"globex", "dmc"}}
	var wg sync.WaitGroup
	results := make([]JobResult, len(subs))
	for i, sb := range subs {
		wg.Add(1)
		go func(i int, sb sub) {
			defer wg.Done()
			resp, body := submit(t, ts.URL, JobRequest{
				Tenant: sb.tenant, Func: sb.fn, Count: 4, SizeBytes: 4096, Seed: uint64(i),
			})
			if resp.StatusCode != 200 {
				t.Errorf("submit %v: status %d: %s", sb, resp.StatusCode, body)
				return
			}
			if err := json.Unmarshal(body, &results[i]); err != nil {
				t.Error(err)
			}
		}(i, sb)
	}
	wg.Wait()
	drain(t, s)

	totalAttr := 0.0
	for i, res := range results {
		if res.EnergyAttrJ <= 0 || res.EnergyAttrJ > res.EnergyJ {
			t.Errorf("job %d: EnergyAttrJ = %g, EnergyJ = %g", i, res.EnergyAttrJ, res.EnergyJ)
		}
		totalAttr += res.EnergyAttrJ
	}
	if total := s.Runtime().Stats().Energy; totalAttr <= 0 || totalAttr > total {
		t.Errorf("attributed %g J exceeds total %g J", totalAttr, total)
	}

	// Span histograms: every (class, tenant) child that completed a job
	// has queue and e2e observations; exec spans exist where payloads ran.
	for _, sb := range subs {
		h, ok := reg.At("eewa_serve_e2e_seconds", sb.fn, sb.tenant).(*obs.LogHistogram)
		if !ok || h.Count() == 0 {
			t.Errorf("no e2e span for %v", sb)
			continue
		}
		if q := h.Quantile(0.99); q <= 0 {
			t.Errorf("%v: e2e p99 = %g", sb, q)
		}
		if eh, ok := reg.At("eewa_serve_exec_seconds", sb.fn, sb.tenant).(*obs.LogHistogram); !ok || eh.Count() == 0 {
			t.Errorf("no exec span for %v", sb)
		}
		// The account closes: the four phases sum to end to end, so no
		// stretch of the request's life is outside every span.
		phases := 0.0
		for _, name := range []string{"eewa_serve_queue_wait_seconds", "eewa_serve_batch_wait_seconds",
			"eewa_serve_exec_seconds", "eewa_serve_span_barrier_seconds"} {
			ph, ok := reg.At(name, sb.fn, sb.tenant).(*obs.LogHistogram)
			if !ok || ph.Count() != h.Count() {
				t.Errorf("%v: %s has no observation per job", sb, name)
				continue
			}
			phases += ph.Sum()
		}
		if gap := math.Abs(phases - h.Sum()); gap > spanTol {
			t.Errorf("%v: phases sum to %g s, e2e %g s", sb, phases, h.Sum())
		}
	}
	if vs := s.Violations(); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}

	// Tenant energy counters match the JobResult attribution.
	vec := reg.CounterVec("eewa_serve_energy_tenant_joules_total", "", "tenant")
	got := vec.With("acme").Value() + vec.With("globex").Value()
	if diff := got - totalAttr; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("tenant counters sum %g, job attributions sum %g", got, totalAttr)
	}

	// LatencySummary covers all four jobs with ordered quantiles.
	sum := s.LatencySummary()
	if sum.Jobs != uint64(len(subs)) {
		t.Errorf("summary jobs = %d, want %d", sum.Jobs, len(subs))
	}
	if !(sum.E2EP50 > 0 && sum.E2EP50 <= sum.E2EP95 && sum.E2EP95 <= sum.E2EP99) {
		t.Errorf("e2e quantiles out of order: %+v", sum)
	}
	if sum.QueueP99 < sum.QueueP50 {
		t.Errorf("queue quantiles out of order: %+v", sum)
	}

	// The spans and attribution counters reach the Prometheus export.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		"# TYPE eewa_serve_e2e_seconds histogram",
		"# TYPE eewa_serve_queue_wait_seconds histogram",
		`eewa_serve_e2e_seconds_count{class="sha1",tenant="acme"}`,
		`eewa_serve_energy_tenant_joules_total{tenant="globex"}`,
		`eewa_rt_energy_class_joules_total{class="dmc"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q", want)
		}
	}
}
