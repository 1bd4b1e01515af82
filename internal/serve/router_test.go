package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/rt"
	"repro/internal/xrand"
)

// ---- single-shard parity (the refactor's central promise) ----

// A one-shard routed server must be wire-identical to the pre-router
// server: no "shard" key in job results, no eewa_serve_router_* metric
// families, the raw seed on shard 0, and the old family set intact.
func TestSingleShardWireParity(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, func(c *Config) { c.Obs = reg })

	if got := s.shards[0].cfg.seed; got != 7 {
		t.Errorf("shard 0 seed = %d, want the raw config seed 7", got)
	}
	resp, body := submit(t, ts.URL, JobRequest{Func: "sha1", Count: 2, SizeBytes: 1024})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), `"shard"`) {
		t.Errorf("single-shard JobResult leaks a shard field: %s", body)
	}
	drain(t, s)

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "eewa_serve_router_") {
		t.Errorf("single-shard server exports router-only families:\n%s", out)
	}
	// The pre-router family set is still there, unrenamed.
	for _, want := range []string{
		"eewa_serve_inflight_tasks", "eewa_serve_queue_depth",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export lost pre-router family %q", want)
		}
	}
}

// Two identically-configured single-shard servers must make identical
// batching decisions for the same submission sequence: same batch
// count, same tasks per batch, same profiled classes per batch.
func TestSingleShardDecisionParity(t *testing.T) {
	type batchRec struct {
		tasks   int
		classes string
	}
	run := func() []batchRec {
		var mu sync.Mutex
		var recs []batchRec
		s, ts := testServer(t, nil)
		s.shards[0].testBatchEnd = func(_ int, bs rt.BatchStats) {
			names := make([]string, 0, len(bs.Classes))
			for n := range bs.Classes {
				names = append(names, n)
			}
			// Map order is random; canonicalize.
			for i := range names {
				for k := i + 1; k < len(names); k++ {
					if names[k] < names[i] {
						names[i], names[k] = names[k], names[i]
					}
				}
			}
			mu.Lock()
			recs = append(recs, batchRec{tasks: bs.Tasks, classes: strings.Join(names, ",")})
			mu.Unlock()
		}
		for i, fn := range []string{"sha1", "lzw", "sha1", "dmc"} {
			resp, body := submit(t, ts.URL, JobRequest{Func: fn, Count: 3, SizeBytes: 2048, Seed: uint64(i)})
			if resp.StatusCode != 200 {
				t.Fatalf("submit %s: status %d: %s", fn, resp.StatusCode, body)
			}
		}
		drain(t, s)
		mu.Lock()
		defer mu.Unlock()
		return recs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("batch counts diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("batch %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Multi-shard seed derivation: shard 0 keeps the raw seed, shard i>0
// uses the split stream — and job results now carry the shard index.
func TestMultiShardSeedsAndShardField(t *testing.T) {
	s, ts := testServer(t, func(c *Config) { c.Shards = 3; c.Workers = 2 })
	for i, sh := range s.shards {
		want := uint64(7)
		if i > 0 {
			want = xrand.Split(7, uint64(i))
		}
		if sh.cfg.seed != want {
			t.Errorf("shard %d seed = %d, want %d", i, sh.cfg.seed, want)
		}
	}
	resp, body := submit(t, ts.URL, JobRequest{Func: "sha1", Count: 2, SizeBytes: 1024})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// Shard 0 must serialize too — the field is only omitted when the
	// cluster has a single shard, never for index 0 of a real cluster.
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Shard == nil {
		t.Errorf("multi-shard JobResult carries no shard field: %s", body)
	}
	drain(t, s)
}

// ---- routing order ----

// routedServer builds an N-shard server without starting load, for
// white-box shardOrder tests.
func routedServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{Workers: 2, Machine: machine.Opteron16(), Policy: "eewa", Seed: 1}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drain(t, s) })
	return s
}

func setPlan(sh *shard, classes ...string) {
	sh.mu.Lock()
	sh.planClasses = map[string]struct{}{}
	for _, c := range classes {
		sh.planClasses[c] = struct{}{}
	}
	sh.mu.Unlock()
}

func setInflight(sh *shard, n int) {
	sh.inflight.Store(int64(n))
}

func TestShardOrderClassAware(t *testing.T) {
	s := routedServer(t, func(c *Config) { c.Shards = 3 })

	// Only shard 1's plan knows sha1: it leads; the spillover tail is
	// ordered by headroom (all equal here → by index).
	setPlan(s.shards[1], "sha1")
	if got := s.shardOrder("sha1"); got[0] != 1 {
		t.Errorf("class-aware order = %v, want shard 1 first", got)
	}

	// Shards 1 and 2 both know it; shard 2 has more headroom.
	setPlan(s.shards[2], "sha1")
	setInflight(s.shards[1], 100)
	if got := s.shardOrder("sha1"); got[0] != 2 || got[1] != 1 {
		t.Errorf("headroom tiebreak order = %v, want [2 1 0]", got)
	}
	setInflight(s.shards[1], 0)

	// A draining shard leaves every order.
	s.shards[2].draining.Store(true)
	for _, idx := range s.shardOrder("sha1") {
		if idx == 2 {
			t.Errorf("draining shard 2 still in order %v", s.shardOrder("sha1"))
		}
	}
	s.shards[2].draining.Store(false)
}

// A class no shard's plan knows goes to the fastest ladder — the
// paper's "unknown class → fastest group" at cluster scope.
func TestShardOrderUnknownClassFastestLadder(t *testing.T) {
	base := machine.Opteron16()
	s := routedServer(t, func(c *Config) {
		c.Shards = 3
		c.ShardMachines = []machine.Config{
			machine.Tiered(base, 2), // slowest top rung
			machine.Tiered(base, 1),
			base, // full ladder: fastest
		}
	})
	got := s.shardOrder("never-profiled")
	if got[0] != 2 || got[1] != 1 || got[2] != 0 {
		t.Errorf("unknown-class order = %v, want fastest-first [2 1 0]", got)
	}
	// Once a slower shard's plan knows the class, it outranks raw speed.
	setPlan(s.shards[0], "never-profiled")
	if got := s.shardOrder("never-profiled"); got[0] != 0 {
		t.Errorf("known-class order = %v, want planning shard 0 first", got)
	}
}

func TestShardOrderRoundRobin(t *testing.T) {
	s := routedServer(t, func(c *Config) { c.Shards = 3; c.Routing = RouteRR })
	var starts []int
	for i := 0; i < 6; i++ {
		starts = append(starts, s.shardOrder("sha1")[0])
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("rr starts = %v, want %v", starts, want)
		}
	}
}

func TestShardOrderLeastLoaded(t *testing.T) {
	s := routedServer(t, func(c *Config) { c.Shards = 3; c.Routing = RouteLeast })
	setInflight(s.shards[0], 50)
	setInflight(s.shards[1], 10)
	setInflight(s.shards[2], 90)
	got := s.shardOrder("sha1")
	if got[0] != 1 || got[1] != 0 || got[2] != 2 {
		t.Errorf("least order = %v, want [1 0 2]", got)
	}
	for _, sh := range s.shards {
		setInflight(sh, 0)
	}
}

// ---- spillover and rejection preference ----

// When the preferred shard's budget is full, the job spills to the
// next candidate instead of bouncing — and the spillover is counted.
func TestSpilloverPastFullShard(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, func(c *Config) {
		c.Obs = reg
		c.Shards = 2
		c.Workers = 2
	})
	// Shard 0's plan knows sha1, so it is preferred — but its in-flight
	// budget is (artificially) exhausted.
	setPlan(s.shards[0], "sha1")
	setInflight(s.shards[0], s.cfg.MaxInFlight)

	resp, body := submit(t, ts.URL, JobRequest{Func: "sha1", Count: 2, SizeBytes: 1024})
	if resp.StatusCode != 200 {
		t.Fatalf("spillover submit: status %d: %s", resp.StatusCode, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Shard == nil || *res.Shard != 1 {
		t.Errorf("job landed on shard %v, want spillover to 1", res.Shard)
	}
	if v := reg.Counter("eewa_serve_router_spillover_total", "").Value(); v != 1 {
		t.Errorf("spillover_total = %g, want 1", v)
	}

	// Both shards full → the preferred shard's 429 comes back, not a 503.
	setInflight(s.shards[1], s.cfg.MaxInFlight)
	resp, body = submit(t, ts.URL, JobRequest{Func: "sha1", Count: 2, SizeBytes: 1024})
	if resp.StatusCode != 429 {
		t.Errorf("cluster-full submit: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("cluster-full 429 lacks Retry-After")
	}
	setInflight(s.shards[0], 0)
	setInflight(s.shards[1], 0)
	drain(t, s)
}

// ---- shard lifecycle ----

// Draining every shard individually leaves the cluster answering 503
// with Retry-After, same as a cluster-wide drain.
func TestAllShardsDraining503(t *testing.T) {
	s, ts := testServer(t, func(c *Config) { c.Shards = 2; c.Workers = 2 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		if err := s.shards[i].drain(ctx); err != nil {
			t.Fatalf("drain shard %d: %v", i, err)
		}
	}
	resp, body := submit(t, ts.URL, JobRequest{Func: "sha1", Count: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-draining submit: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("all-draining 503 lacks Retry-After")
	}
	if !strings.Contains(string(body), "every shard is draining") {
		t.Errorf("503 body should say the whole cluster drains: %s", body)
	}
}

// Satellite: the healthz drain response carries the same Retry-After
// hint the 429/503 job path sends.
func TestHealthzDrainRetryAfter(t *testing.T) {
	s, ts := testServer(t, nil)
	drain(t, s)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain = %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining healthz 503 lacks Retry-After")
	}
}

// ---- /v1/shards ----

func TestShardsEndpoint(t *testing.T) {
	s, ts := testServer(t, func(c *Config) { c.Shards = 2; c.Workers = 2; c.Routing = RouteLeast })
	submit(t, ts.URL, JobRequest{Func: "sha1", Count: 2, SizeBytes: 1024})
	resp, err := http.Get(ts.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("shards status %d", resp.StatusCode)
	}
	var rs RouterStats
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Routing != RouteLeast || len(rs.Shards) != 2 {
		t.Fatalf("router stats %+v", rs)
	}
	admitted := rs.Shards[0].Admitted + rs.Shards[1].Admitted
	if admitted != 1 {
		t.Errorf("shard admitted sum = %d, want 1", admitted)
	}
	for i, sh := range rs.Shards {
		if sh.Shard != i || sh.Workers != 2 || sh.FastestGHz <= 0 {
			t.Errorf("shard %d stats %+v", i, sh)
		}
	}
	drain(t, s)
}

// ---- construction validation ----

func TestNewValidatesTopology(t *testing.T) {
	mc := machine.Opteron16()
	cases := []Config{
		{Workers: 2, Machine: mc, Shards: -1},
		{Workers: 2, Machine: mc, Routing: "bogus"},
		{Workers: 2, Machine: mc, Shards: 3, ShardMachines: []machine.Config{mc}},
		{Workers: 2, Machine: mc, Shards: 2, ShardOfflines: make([]*profile.Snapshot, 3)},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid topology accepted: %+v", i, cfg)
		}
	}
}

// ---- chaos: drain one shard mid-burst ----

// Drain shard 1 of 3 while a burst is in flight: no admitted job is
// lost or duplicated cluster-wide, the drained shard takes no further
// work, and the surviving shards absorb the rest of the burst.
func TestRouterChaosDrainShardMidBurst(t *testing.T) {
	s, ts := testServer(t, func(c *Config) {
		c.Shards = 3
		c.Workers = 2
		c.Invariants = true
		c.FlushEvery = 5 * time.Millisecond
		c.QueueDepth = 4096
		c.MaxInFlight = 4096
	})

	var ok, tasksOK atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, body := submit(t, ts.URL, JobRequest{
					Tenant: fmt.Sprintf("t%d", g%2), Func: "sha1", Count: 3,
					SizeBytes: 8 << 10, Seed: uint64(g*100 + i),
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
						t.Errorf("job lost tasks mid-chaos: %+v", res)
					}
					tasksOK.Add(int64(res.Tasks))
				case 503:
					// The router refuses only when every shard drains; two
					// stay healthy throughout.
					t.Errorf("healthy cluster refused a job: %s", body)
				default:
					t.Errorf("status %d: %s", resp.StatusCode, body)
				}
			}
		}(g)
	}

	// Let work land, then yank shard 1 out from under the burst.
	waitUntil := time.Now().Add(10 * time.Second)
	for time.Now().Before(waitUntil) && s.Stats().Admitted < 6 {
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.shards[1].drain(ctx); err != nil {
		t.Fatalf("mid-burst shard drain: %v", err)
	}
	// admit() rejects under the draining flag, so shard 1's admission
	// counter is final the moment its drain returns.
	admitted1 := s.ShardStats()[1].Admitted
	wg.Wait()
	drain(t, s)

	if got := s.ShardStats()[1].Admitted; got != admitted1 {
		t.Errorf("drained shard 1 admitted %d more jobs after its drain completed", got-admitted1)
	}
	st := s.Stats()
	if st.Admitted != st.Completed+st.Timeouts {
		t.Errorf("job conservation broken: admitted %d ≠ completed %d + timeouts %d",
			st.Admitted, st.Completed, st.Timeouts)
	}
	if st.Completed != uint64(ok.Load()) || st.Tasks != uint64(tasksOK.Load()) {
		t.Errorf("stats %+v vs ok=%d tasksOK=%d — lost or duplicated work", st, ok.Load(), tasksOK.Load())
	}
	ss := s.ShardStats()
	if !ss[1].Draining {
		t.Error("shard 1 not marked draining in /v1/shards")
	}
	if ss[0].Admitted+ss[2].Admitted == 0 {
		t.Error("surviving shards absorbed nothing")
	}
	var sum uint64
	for _, sh := range ss {
		sum += sh.Admitted
	}
	if sum != st.Admitted {
		t.Errorf("shard admitted sum %d ≠ cluster admitted %d", sum, st.Admitted)
	}
	for i, sh := range s.shards {
		if vs := sh.rt.Violations(); len(vs) != 0 {
			t.Errorf("shard %d invariant violations: %v", i, vs)
		}
	}
}
