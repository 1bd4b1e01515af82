package traffic

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
)

// Capture is HTTP middleware that records live job submissions as a
// replayable trace. It wraps the serve handler from the outside —
// traffic imports serve, never the reverse — decoding each POST
// /v1/jobs and POST /v1/jobs:batch body on its way in and appending one
// event per job, with the offset measured from the first captured
// request (every job of a batch arrives at its request's instant).
// Capture observes submissions, not outcomes: a 429'd job is still an
// arrival, which is exactly what an open-loop replay needs to reproduce
// the load that caused the 429.
type Capture struct {
	next http.Handler

	mu     sync.Mutex
	start  time.Time
	events []Event
}

// NewCapture wraps next, recording every well-formed job submission.
func NewCapture(next http.Handler) *Capture {
	return &Capture{next: next}
}

func (c *Capture) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	batch := r.URL.Path == "/v1/jobs:batch"
	if r.Method == http.MethodPost && (batch || r.URL.Path == "/v1/jobs") && r.Body != nil {
		limit := int64(1 << 16) // serve's bounds: 64 KiB a job, 1 MiB a batch
		if batch {
			limit = 1 << 20
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
		if err != nil {
			http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var breq serve.BatchRequest
		if batch {
			err = json.Unmarshal(body, &breq)
		} else {
			breq.Jobs = make([]serve.JobRequest, 1)
			err = json.Unmarshal(body, &breq.Jobs[0])
		}
		if err == nil { // a malformed body is serve's 400, nothing to replay
			c.record(breq.Jobs)
		}
	}
	c.next.ServeHTTP(w, r)
}

// record appends one event per job with a function, all arriving now.
// The clock is read under the lock, so events are appended in offset
// order and no request that locks second can carry the earlier
// reading (a negative offset when both are the first).
func (c *Capture) record(jobs []serve.JobRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for _, req := range jobs {
		if req.Func == "" {
			continue // serve will 400 it, nothing to replay
		}
		if c.start.IsZero() {
			c.start = now
		}
		ev := Event{
			OffsetS:   now.Sub(c.start).Seconds(),
			Tenant:    req.Tenant,
			Class:     req.Func,
			Count:     req.Count,
			SizeBytes: req.SizeBytes,
			Seed:      req.Seed,
			WorkHintS: req.WorkHintS,
		}
		if ev.Count <= 0 {
			ev.Count = 1 // serve's default for an omitted count
		}
		switch {
		case req.DeadlineMS > 0:
			ev.DeadlineMS = req.DeadlineMS
		case req.DeadlineAtMS > 0:
			// Re-relativize the absolute deadline against the arrival so
			// the captured trace replays on any clock.
			if d := req.DeadlineAtMS - now.UnixMilli(); d > 0 {
				ev.DeadlineMS = d
			} else {
				ev.DeadlineMS = 1 // already expired: keep the fast-fail replayable
			}
		}
		c.events = append(c.events, ev)
	}
}

// Trace snapshots the capture as a valid trace: events in arrival
// order (a batch's jobs in submission order), the horizon extended to
// the last arrival.
func (c *Capture) Trace(name string) *Trace {
	c.mu.Lock()
	events := make([]Event, len(c.events))
	copy(events, c.events)
	c.mu.Unlock()
	dur := 1e-3
	if n := len(events); n > 0 && events[n-1].OffsetS > dur {
		dur = events[n-1].OffsetS
	}
	return &Trace{
		SchemaVersion: SchemaVersion,
		Name:          name,
		DurationS:     dur,
		Events:        events,
	}
}

// Len reports the number of captured events.
func (c *Capture) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}
