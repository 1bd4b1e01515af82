package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
)

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// counterAt reads a labelled counter from the registry, 0 if unset.
func counterAt(t *testing.T, reg *obs.Registry, name string, labels ...string) float64 {
	t.Helper()
	c, ok := reg.At(name, labels...).(*obs.Counter)
	if !ok || c == nil {
		return 0
	}
	return c.Value()
}

// TestExpiredDeadlineFastFails is the regression test for the
// admission fast-fail: a job whose absolute deadline has already
// passed must be refused with 504 at route time and never reach the
// batcher — before the fix it was queued, burned a batch slot, and
// was only dropped at batch formation.
func TestExpiredDeadlineFastFails(t *testing.T) {
	s, ts := testServer(t, nil)
	resp, body := submit(t, ts.URL, JobRequest{
		Func:         "sha1",
		Count:        2,
		DeadlineAtMS: time.Now().Add(-time.Second).UnixMilli(),
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Errorf("fast-fail carried Retry-After %q; retrying an expired request is pointless", ra)
	}
	drain(t, s)
	st := s.Stats()
	if st.Admitted != 0 {
		t.Errorf("expired job was admitted (admitted=%d); it must never reach the batcher", st.Admitted)
	}
	if st.Batches != 0 || st.Tasks != 0 {
		t.Errorf("expired job consumed batch resources: batches=%d tasks=%d", st.Batches, st.Tasks)
	}
	if st.Timeouts != 1 {
		t.Errorf("timeouts=%d, want 1 (fast-fail counts as a timeout)", st.Timeouts)
	}
	if got := counterAt(t, s.cfg.Obs, "eewa_serve_cancelled_jobs_total", "expired_at_admission"); got != 1 {
		t.Errorf("expired_at_admission counter = %g, want 1", got)
	}
}

// A job refused on sight — its deadline already past, or the server
// draining — is refused before its tasks are built: the pooled job's
// corpus slab is never sized, let alone written (64 KiB of text corpus
// for this request, ≈100 µs), and the refusal allocates nothing but the
// Rejection it returns. The answers are the bytes they always were, and
// the 400s still come first, then 503, then 504.
func TestRefusedJobIsNeverFilled(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, func(c *Config) { c.Obs = reg })
	expired := JobRequest{Func: "sha1", SizeBytes: 16 << 10, Count: 4, DeadlineAtMS: 1}

	// No job of this server's pool has been filled yet, and none will be:
	// every request in this test is refused.
	refuse := func(req JobRequest, status int) {
		t.Helper()
		j, err := s.newJob(req)
		if err != nil {
			t.Fatal(err)
		}
		rej := s.route(j)
		if rej == nil || rej.Status != status {
			t.Fatalf("route = %+v, want a %d", rej, status)
		}
		if cap(j.corpus) != 0 || len(j.tasks) != 0 {
			t.Errorf("%d: refused job was filled: %d corpus bytes, %d tasks", status, cap(j.corpus), len(j.tasks))
		}
		j.release()
		allocs := testing.AllocsPerRun(100, func() {
			j, _ := s.newJob(req)
			s.route(j)
			j.release()
		})
		if allocs > 1 {
			t.Errorf("%d: refusing a job allocates %.1f times, want only the Rejection", status, allocs)
		}
	}
	refuse(expired, http.StatusGatewayTimeout)

	resp, body := submit(t, ts.URL, expired)
	want := refEncode(http.StatusGatewayTimeout, errorBody{Error: "deadline already expired at admission"})
	if resp.StatusCode != want.Code || !bytes.Equal(body, want.Body.Bytes()) {
		t.Errorf("expired at admission: %d %q, want %d %q", resp.StatusCode, body, want.Code, want.Body.Bytes())
	}
	bad := expired
	bad.Count = -1
	if resp, _ := submit(t, ts.URL, bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed and expired: status %d, want 400 first", resp.StatusCode)
	}

	drain(t, s)
	refuse(expired, http.StatusServiceUnavailable) // draining outranks expired
	resp, body = submit(t, ts.URL, JobRequest{Func: "sha1", SizeBytes: 16 << 10, Count: 4})
	want = refEncode(http.StatusServiceUnavailable, errorBody{
		Error: "server is draining, not admitting new jobs", RetryAfter: retryAfterSecs})
	if resp.StatusCode != want.Code || !bytes.Equal(body, want.Body.Bytes()) {
		t.Errorf("draining: %d %q, want %d %q", resp.StatusCode, body, want.Code, want.Body.Bytes())
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 lost its Retry-After")
	}

	if st := s.Stats(); st.Admitted != 0 || st.Batches != 0 {
		t.Errorf("refused jobs reached a shard: %+v", st)
	}
	// One request of each kind came in over HTTP; each moved its own
	// counter, once.
	if got := counterAt(t, reg, "eewa_serve_cancelled_jobs_total", "expired_at_admission"); got != 1 {
		t.Errorf("expired_at_admission counter = %g, want 1", got)
	}
	if got := counterAt(t, reg, "eewa_serve_rejected_total", "draining"); got != 1 {
		t.Errorf("rejected{draining} counter = %g, want 1", got)
	}
	if st := s.Stats(); st.Timeouts != 1 || st.Rejected != 1 {
		t.Errorf("timeouts %d, rejected %d, want 1 and 1", st.Timeouts, st.Rejected)
	}
}

// TestDeadlineExclusivity: DeadlineMS and DeadlineAtMS are mutually
// exclusive; sending both is a 400, not a silent preference.
func TestDeadlineExclusivity(t *testing.T) {
	_, ts := testServer(t, nil)
	resp, _ := submit(t, ts.URL, JobRequest{
		Func:         "sha1",
		DeadlineMS:   5000,
		DeadlineAtMS: time.Now().Add(5 * time.Second).UnixMilli(),
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestDisconnectCountsCancellation is the regression test for the
// invisible-disconnect bug: a client hanging up mid-queue sets the
// job's cancelled flag but, before the fix, incremented no counter —
// disconnects were indistinguishable from deadline drops. The
// eewa_check conservation invariant must still close afterwards:
// every admitted task is either run or cancelled, never lost.
func TestDisconnectCountsCancellation(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := testServer(t, func(c *Config) {
		c.Obs = reg
		c.ManualFlush = true // the job stays queued until the drain below flushes
		c.Workers = 2
		c.Machine = machine.Generic(2)
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs",
		jsonBody(t, JobRequest{Func: "sha1", Count: 4}))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait until the job is admitted (queued), then hang up while it is
	// still waiting for a batch.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Admitted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected the client request to fail after disconnect")
	}

	// The shard still owns the job; the handler counts the disconnect,
	// and the flush that gets to the job drops it as a timeout.
	for time.Now().Before(deadline) {
		if counterAt(t, reg, "eewa_serve_cancelled_jobs_total", "disconnect") >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := counterAt(t, reg, "eewa_serve_cancelled_jobs_total", "disconnect"); got != 1 {
		t.Fatalf("disconnect cancellation counter = %g, want 1", got)
	}
	drain(t, s)

	// Task conservation: the disconnected job's slots must be fully
	// returned — queue and inflight back to zero, the job resolved
	// exactly once (as a timeout), and any task that did reach the
	// runtime either ran or was withdrawn. Under -tags eewa_check the
	// runtime asserts its half of the identity internally; Violations
	// surfaces any breach either way.
	st := s.Stats()
	if st.Queued != 0 || st.Inflight != 0 {
		t.Errorf("conservation leak: queued=%d inflight=%d after drain, want 0/0", st.Queued, st.Inflight)
	}
	if st.Timeouts != 1 {
		t.Errorf("timeouts=%d, want exactly 1 (the cancelled job, counted once)", st.Timeouts)
	}
	if got := st.Tasks + st.Cancelled; got != 0 && got != 4 {
		t.Errorf("partial accounting: run=%d cancelled=%d, want all-or-none of 4", st.Tasks, st.Cancelled)
	}
	if v := s.Violations(); len(v) != 0 {
		t.Errorf("runtime violations after disconnect: %v", v)
	}
}

// TestSubmitFlushLockstep exercises the programmatic replay seam: a
// virtual clock, manual flushing, and Submit/Pending instead of HTTP.
// Outcomes must be a pure function of the submission sequence.
func TestSubmitFlushLockstep(t *testing.T) {
	var vnow atomic.Int64
	vnow.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	s, err := New(Config{
		Workers:     2,
		Machine:     machine.Generic(2),
		Policy:      "eewa",
		Seed:        7,
		Obs:         obs.NewRegistry(),
		Clock:       func() time.Time { return time.Unix(0, vnow.Load()) },
		ManualFlush: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	ok, rej := s.Submit(JobRequest{Func: "sha1", Count: 2, Seed: 1})
	if rej != nil {
		t.Fatalf("submit rejected: %+v", rej)
	}
	// A job whose deadline expires before the flush boundary must be
	// dropped at batch formation — in virtual time, no wall timers.
	late, rej := s.Submit(JobRequest{Func: "sha1", Count: 1, Seed: 2, DeadlineMS: 10})
	if rej != nil {
		t.Fatalf("submit rejected: %+v", rej)
	}

	vnow.Add(int64(50 * time.Millisecond)) // past late's deadline
	s.Flush()

	if st, res, _ := ok.Wait(); st != 200 || res == nil || res.TasksRun != 2 {
		t.Errorf("ok job: status %d res %+v", st, res)
	}
	if st, _, _ := late.Wait(); st != http.StatusGatewayTimeout {
		t.Errorf("late job: status %d, want 504 queued-drop", st)
	}

	st := s.Stats()
	if st.Batches != 1 || st.Tasks != 2 || st.Timeouts != 1 {
		t.Errorf("stats %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if v := s.Violations(); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
}
