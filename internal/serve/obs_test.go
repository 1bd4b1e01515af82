package serve

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
)

// TestServeBatchFamilies pins the per-batch and per-job distributions
// against the server's own counts: six two-task jobs flushed with
// MaxBatch 4 run as three batches, and a seventh job that expires in the
// queue is never batched, so it must not reach the queue-wait family
// nor any in-batch span.
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
	if got := reg.LogHistogram("eewa_serve_batch_seconds", "").Count(); got != st.Batches {
		t.Errorf("eewa_serve_batch_seconds count = %d, want %d batches", got, st.Batches)
	}
	if got, want := reg.LogHistogram("eewa_serve_batch_tasks", "").Sum(), float64(st.Tasks+st.Cancelled); got != want || want != jobs*perJob {
		t.Errorf("eewa_serve_batch_tasks sum = %g, want %g run + cancelled (%d submitted)", got, want, jobs*perJob)
	}
	if got := reg.LogHistogram("eewa_serve_queue_seconds", "").Count(); got != jobs {
		t.Errorf("eewa_serve_queue_seconds count = %d, want %d batched jobs", got, jobs)
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
