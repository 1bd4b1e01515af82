package serve

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
)

// A fixed single-threaded submission sequence must keep producing the
// same outcomes: the same rejections with the same messages, and the
// same batch compositions (global FIFO, the head-of-line break at
// MaxBatch). testdata/admission_outcomes.golden was captured from the
// striped-admission server this queue replaced, at 1 and at 8 stripes,
// which agreed line for line.
func TestAdmissionOutcomesGolden(t *testing.T) {
	s, err := New(Config{
		Workers:     4,
		Machine:     machine.Opteron16(),
		Policy:      "eewa",
		Seed:        7,
		Obs:         obs.NewRegistry(),
		ManualFlush: true,
		MaxBatch:    16,
		QueueDepth:  24,
		MaxInFlight: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, s)

	tenants := []string{"acme", "beta", "gamma", "delta", "epsilon", "zeta"}
	var got []string
	idx := 0
	for round := 0; round < 3; round++ {
		type waiting struct {
			idx int
			p   *Pending
		}
		var pend []waiting
		for i := 0; i < 40; i++ {
			req := JobRequest{
				Tenant:    tenants[idx%len(tenants)],
				Func:      "sha1",
				Count:     1 + idx%3,
				SizeBytes: 256,
				Seed:      uint64(idx),
				WorkHintS: float64(idx%5) * 1e-4,
			}
			p, rej := s.Submit(req)
			if rej != nil {
				got = append(got, fmt.Sprintf("%d rej %d %s", idx, rej.Status, rej.Msg))
			} else {
				pend = append(pend, waiting{idx, p})
			}
			idx++
		}
		s.Flush()
		for _, w := range pend {
			status, res, errMsg := w.p.Wait()
			if res != nil {
				got = append(got, fmt.Sprintf("%d st=%d batch=%d run=%d/%d", w.idx, status, res.Batch, res.TasksRun, res.Tasks))
			} else {
				got = append(got, fmt.Sprintf("%d st=%d err=%s", w.idx, status, errMsg))
			}
		}
	}

	raw, err := os.ReadFile("testdata/admission_outcomes.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("%d outcomes, golden has %d", len(got), len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("outcome %d: got %q, golden %q", i, got[i], want[i])
		}
	}
}

// A concurrent multi-tenant submit storm through the full HTTP stack:
// every submission must resolve to exactly one of 200/429, per-tenant
// accounting must close (submitted == ok + rejected), and after drain
// the task ledger must balance — no admitted task lost or double-run —
// and the exported admission families must agree with it. Run under
// -race, also with more Ps than cores (see the race-serve target).
func TestConcurrentSubmitStormConservesTasks(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, func(c *Config) {
		c.Obs = reg
		c.QueueDepth = 32
		c.MaxInFlight = 128
		c.MaxBatch = 32
		c.FlushEvery = 2 * time.Millisecond
	})

	const (
		nTenants    = 6
		goroutines  = 18
		jobsEach    = 25
		tasksPerJob = 2
	)
	type counts struct{ submitted, ok, rejected, other int64 }
	perTenant := make([]counts, nTenants)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var local [nTenants]counts
			for i := 0; i < jobsEach; i++ {
				tn := (g + i) % nTenants
				resp, body := submit(t, ts.URL, JobRequest{
					Tenant:    fmt.Sprintf("tenant-%d", tn),
					Func:      "md5",
					Count:     tasksPerJob,
					SizeBytes: 256,
					Seed:      uint64(g*1000 + i),
				})
				local[tn].submitted++
				switch resp.StatusCode {
				case 200:
					local[tn].ok++
				case 429:
					local[tn].rejected++
				default:
					local[tn].other++
					t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
				}
			}
			mu.Lock()
			for tn := range local {
				perTenant[tn].submitted += local[tn].submitted
				perTenant[tn].ok += local[tn].ok
				perTenant[tn].rejected += local[tn].rejected
				perTenant[tn].other += local[tn].other
			}
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	drain(t, s)

	var totalOK, totalSubmitted int64
	for tn := range perTenant {
		c := perTenant[tn]
		if c.submitted != c.ok+c.rejected+c.other {
			t.Errorf("tenant %d: %d submitted != %d ok + %d rejected + %d other",
				tn, c.submitted, c.ok, c.rejected, c.other)
		}
		totalOK += c.ok
		totalSubmitted += c.submitted
	}
	if totalSubmitted != goroutines*jobsEach {
		t.Fatalf("submitted %d, want %d", totalSubmitted, goroutines*jobsEach)
	}

	// Task ledger: every admitted job (no deadlines here) completes all
	// its tasks; nothing queued or in flight survives the drain.
	st := s.Stats()
	if st.Admitted != uint64(totalOK) {
		t.Errorf("admitted %d, want %d (the 200 count)", st.Admitted, totalOK)
	}
	if st.Completed != uint64(totalOK) {
		t.Errorf("completed %d, want %d", st.Completed, totalOK)
	}
	if st.Tasks != uint64(totalOK)*tasksPerJob {
		t.Errorf("tasks run %d, want %d", st.Tasks, uint64(totalOK)*tasksPerJob)
	}
	if st.Queued != 0 || st.Inflight != 0 {
		t.Errorf("post-drain backlog: queued %d, inflight %d, want 0/0", st.Queued, st.Inflight)
	}
	if st.Timeouts != 0 {
		t.Errorf("timeouts %d, want 0", st.Timeouts)
	}

	// The exported admission families close the same ledger.
	snap := reg.Snapshot()
	admitted, _ := snap["eewa_serve_admitted_tenant_total"].(map[string]any)
	sum := 0.0
	for _, v := range admitted {
		sum += v.(float64)
	}
	if sum != float64(st.Admitted) {
		t.Errorf("eewa_serve_admitted_tenant_total sums to %v, want %d", sum, st.Admitted)
	}
	if v, ok := snap["eewa_serve_inflight_tasks"].(float64); !ok || v != 0 {
		t.Errorf("eewa_serve_inflight_tasks = %v after drain, want 0", snap["eewa_serve_inflight_tasks"])
	}
	depths, _ := snap["eewa_serve_queue_depth"].(map[string]any)
	if len(depths) != nTenants {
		t.Errorf("eewa_serve_queue_depth has %d children, want one per tenant (%d)", len(depths), nTenants)
	}
	for tenant, v := range depths {
		if v != 0.0 {
			t.Errorf("eewa_serve_queue_depth{%s} = %v after drain, want 0", tenant, v)
		}
	}
}
