package serve

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
)

// TestServeBatchFamilies pins the per-batch and per-job distributions
// against the server's own counts: six two-task jobs flushed with
// MaxBatch 4 run as three batches, and a seventh job that expires in the
// queue is never batched, so it must not reach the queue-wait family
// nor any in-batch span. The batch count and wall are the runtime's
// families, in the same registry.
func TestServeBatchFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{Workers: 2, Policy: policy.IDCilk, ManualFlush: true, MaxBatch: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	const jobs, perJob, batches = 6, 2, 3
	var pend []*Pending
	for i := 0; i < jobs; i++ {
		p, rej := s.Submit(JobRequest{Func: "sha1", SizeBytes: 256, Count: perJob, Seed: uint64(i)})
		if rej != nil {
			t.Fatalf("submit rejected: %+v", rej)
		}
		pend = append(pend, p)
	}
	late, rej := s.Submit(JobRequest{Func: "sha1", SizeBytes: 256, DeadlineMS: 1})
	if rej != nil {
		t.Fatalf("submit rejected: %+v", rej)
	}
	time.Sleep(10 * time.Millisecond) // the deadline job expires while queued
	s.Flush()
	for _, p := range pend {
		if st, _, msg := p.Wait(); st != 200 {
			t.Fatalf("status %d (%s), want 200", st, msg)
		}
	}
	if st, _, _ := late.Wait(); st != 504 {
		t.Fatalf("deadline job status %d, want 504", st)
	}
	drain(t, s)

	st := s.Stats()
	if st.Batches != batches || st.Timeouts != 1 {
		t.Fatalf("stats %+v, want %d batches and 1 timeout", st, batches)
	}
	if got := reg.LogHistogram("eewa_rt_batch_seconds", "").Count(); got != st.Batches {
		t.Errorf("eewa_rt_batch_seconds count = %d, want %d batches", got, st.Batches)
	}
	if got, want := reg.LogHistogram("eewa_serve_batch_tasks", "").Sum(), float64(st.Tasks+st.Cancelled); got != want || want != jobs*perJob {
		t.Errorf("eewa_serve_batch_tasks sum = %g, want %g run + cancelled (%d submitted)", got, want, jobs*perJob)
	}
	var queued obs.LogHistogram
	reg.LogHistogramVec("eewa_serve_queue_wait_seconds", "", "class", "tenant").MergeInto(&queued)
	if got := queued.Count(); got != jobs {
		t.Errorf("eewa_serve_queue_wait_seconds counts sum to %d, want %d batched jobs", got, jobs)
	}
	// With Obs set the payloads take their stamps, so every job that ran
	// one has an observation in each in-batch span.
	for _, name := range []string{"eewa_serve_batch_wait_seconds", "eewa_serve_exec_seconds", "eewa_serve_span_barrier_seconds"} {
		h, ok := reg.At(name, "sha1", "default").(*obs.LogHistogram)
		if !ok || h.Count() != jobs {
			t.Errorf("%s has no observation for each of the %d jobs that ran a payload", name, jobs)
		}
	}
}

// TestLatencySummaryReadsSpanFamilies pins LatencySummary to the
// request-span families: on two shards, with two tenants running two
// classes and one job expiring in the queue, it counts exactly the
// batched jobs the eewa_serve_e2e_seconds children count; without a
// registry it is zero; and reading it while live batchers record into
// those families is race-free and never goes backwards.
func TestLatencySummaryReadsSpanFamilies(t *testing.T) {
	run := func(reg *obs.Registry) (*Server, LatencySummary) {
		now := time.Unix(1_700_000_000, 0)
		s, err := New(Config{Workers: 2, Shards: 2, Policy: policy.IDCilk, ManualFlush: true,
			Obs: reg, Clock: func() time.Time { return now }})
		if err != nil {
			t.Fatal(err)
		}
		late, rej := s.Submit(JobRequest{Func: "sha1", SizeBytes: 256, DeadlineMS: 1})
		if rej != nil {
			t.Fatalf("submit rejected: %+v", rej)
		}
		var pend []*Pending
		for i := range 8 {
			now = now.Add(time.Duration(i+1) * time.Millisecond)
			p, rej := s.Submit(JobRequest{Tenant: []string{"acme", "globex"}[i%2], Func: []string{"sha1", "lzw"}[i/2%2],
				SizeBytes: 256, Seed: uint64(i)})
			if rej != nil {
				t.Fatalf("submit rejected: %+v", rej)
			}
			pend = append(pend, p)
		}
		s.Flush()
		for _, p := range pend {
			if st, _, msg := p.Wait(); st != 200 {
				t.Fatalf("status %d (%s), want 200", st, msg)
			}
		}
		if st, _, _ := late.Wait(); st != 504 {
			t.Fatalf("deadline job status %d, want 504", st)
		}
		drain(t, s)
		return s, s.LatencySummary()
	}

	reg := obs.NewRegistry()
	s, sum := run(reg)
	var e2e obs.LogHistogram
	reg.LogHistogramVec("eewa_serve_e2e_seconds", "", "class", "tenant").MergeInto(&e2e)
	if st := s.Stats(); sum.Jobs != e2e.Count() || sum.Jobs != st.Completed || st.Timeouts != 1 {
		t.Errorf("summary counts %d jobs, e2e children %d, stats %+v: want the 8 batched jobs in each", sum.Jobs, e2e.Count(), st)
	}
	if !(sum.E2EP50 > 0 && sum.E2EP50 <= sum.E2EP95 && sum.E2EP95 <= sum.E2EP99) ||
		!(sum.QueueP50 > 0 && sum.QueueP50 <= sum.QueueP95 && sum.QueueP95 <= sum.QueueP99) {
		t.Errorf("quantiles out of order: %+v", sum)
	}
	if _, sum := run(nil); sum != (LatencySummary{}) {
		t.Errorf("summary without a registry = %+v, want zero", sum)
	}

	live, err := New(Config{Workers: 2, Shards: 2, Policy: policy.IDCilk, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 50
	stop := make(chan struct{})
	reader := make(chan error, 1)
	go func() {
		var last uint64
		for {
			select {
			case <-stop:
				reader <- nil
				return
			default:
			}
			n := live.LatencySummary().Jobs
			if n < last {
				reader <- fmt.Errorf("summary went from %d jobs back to %d", last, n)
				return
			}
			last = n
		}
	}()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perClient {
				p, rej := live.Submit(JobRequest{Tenant: fmt.Sprint("t", c%2), Func: "sha1", SizeBytes: 256, Seed: uint64(c*perClient + i)})
				if rej != nil {
					t.Errorf("submit rejected: %+v", rej)
					return
				}
				if st, _, msg := p.Wait(); st != 200 {
					t.Errorf("status %d (%s), want 200", st, msg)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-reader; err != nil {
		t.Error(err)
	}
	drain(t, live)
	if got := live.LatencySummary().Jobs; got != clients*perClient {
		t.Errorf("live summary counts %d jobs, want %d", got, clients*perClient)
	}
}

// serveFamilyLines is the exported family set of a server with the
// given shard count after one job: every # HELP and # TYPE line, in
// registration order.
func serveFamilyLines(t *testing.T, shards int) []string {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := New(Config{Workers: 2, Shards: shards, Policy: policy.IDCilk, ManualFlush: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	p, rej := s.Submit(JobRequest{Func: "sha1", SizeBytes: 256})
	if rej != nil {
		t.Fatalf("submit rejected: %+v", rej)
	}
	s.Flush()
	if st, _, msg := p.Wait(); st != 200 {
		t.Fatalf("status %d (%s), want 200", st, msg)
	}
	drain(t, s)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	lines := []string{fmt.Sprintf("== shards %d", shards)}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestServeFamiliesGolden pins the wire's family set — names, help
// text, types and order — of a one-shard and a three-shard server
// against testdata/families.golden. A family added, dropped, renamed
// or re-described fails it: regenerate the file only with a
// deliberate wire change.
func TestServeFamiliesGolden(t *testing.T) {
	got := append(serveFamilyLines(t, 1), serveFamilyLines(t, 3)...)
	raw, err := os.ReadFile("testdata/families.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("%d lines, golden has %d", len(got), len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("line %d: got %q, golden %q", i, got[i], want[i])
		}
	}
}
