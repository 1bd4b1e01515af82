package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// API:
//
//	POST /v1/jobs       — submit a job (JobRequest), blocks until it
//	                      runs or its deadline expires; 200 JobResult,
//	                      400 invalid, 429/503 + Retry-After
//	                      backpressure, 504 deadline
//	POST /v1/jobs:batch — submit up to 256 jobs in one request
//	                      (BatchRequest, body ≤ 1 MiB), one admission
//	                      pass, blocks until every admitted job
//	                      resolves; per-job status array
//	                      (BatchResponse), overall 200 or the worst of
//	                      429 > 504 > 400; 400 for a body that does not
//	                      decode, has no jobs or too many
//	GET  /v1/stats      — Stats snapshot (JSON, cluster totals)
//	GET  /v1/shards     — RouterStats snapshot (JSON): routing policy,
//	                      per-shard counters, cluster energy roll-up
//	GET  /healthz       — 200 "ok", 503 "draining" + Retry-After
//
// When the server has a registry, the PR-1 observability endpoints
// (/metrics, /debug/vars, /debug/pprof) are mounted on the same mux.
//
// Both job endpoints decode and encode through the pooled codec of
// decode.go and encode.go, which is pinned to encoding/json: a body or a
// value outside its subset goes through the stdlib on the same bytes, so
// what is accepted, every error string and every response byte are the
// stdlib's (DESIGN.md §9).

// errorBody is the JSON error envelope.
type errorBody struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_s,omitempty"`
}

// BatchRequest is the wire format of POST /v1/jobs:batch.
type BatchRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// BatchItem is one job's slice of the batch response: the same status
// and body the job would have received from POST /v1/jobs.
type BatchItem struct {
	Status     int        `json:"status"`
	Result     *JobResult `json:"result,omitempty"` // 200, and 504 partials
	Error      string     `json:"error,omitempty"`
	RetryAfter int        `json:"retry_after_s,omitempty"`
}

// BatchResponse is the POST /v1/jobs:batch body, jobs in request
// order.
type BatchResponse struct {
	Jobs []BatchItem `json:"jobs"`
}

const (
	// maxBatchBodyBytes bounds a batch submission's body; roomier than
	// the single-job bound since it carries up to maxBatchJobs requests.
	maxBatchBodyBytes = 1 << 20
	// maxBatchJobs bounds the jobs one batch request may carry.
	maxBatchJobs = 256
)

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs:batch", s.handleJobsBatch)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/shards", s.handleShards)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.cfg.Obs != nil {
		oh := obs.Handler(s.cfg.Obs)
		mux.Handle("/metrics", oh)
		mux.Handle("/debug/", oh)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // headers are committed; nothing left to surface
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	in := getIngest()
	defer putIngest(in)
	in.readBody(r.Body, maxBodyBytes)
	if err := s.decodeJob(in); err != nil {
		s.so.rejected.With("invalid").Inc()
		s.writeError(w, http.StatusBadRequest, "decoding job: "+err.Error(), 0)
		return
	}
	j, rej := s.submit(in.req)
	if rej != nil {
		if rej.Status == http.StatusBadRequest || rej.Status == http.StatusGatewayTimeout {
			// An invalid job, or an admission fast-fail (the deadline
			// had already passed): retrying the same request is
			// pointless, so there is no hint.
			s.writeError(w, rej.Status, rej.Msg, 0)
			return
		}
		w.Header().Set("Retry-After", s.static.retryAfterStr)
		s.writeError(w, rej.Status, rej.Msg, retryAfterSecs)
		return
	}

	// The job is queued; wait for the batcher, the deadline, or the
	// client hanging up — whichever comes first. On deadline/disconnect
	// the job is cancelled: unstarted tasks are dropped at batch
	// formation or withdrawn mid-batch via the runtime hook, and the
	// batcher's eventual outcome goes to the buffered channel unheard.
	// Under a virtual clock (Config.Clock, trace replay) the wall-time
	// early-504 timer is meaningless and stays nil; queued expiry is
	// then decided at batch formation, in virtual time.
	var deadlineC <-chan time.Time
	if !j.deadline.IsZero() && s.cfg.Clock == nil {
		timer := time.NewTimer(time.Until(j.deadline))
		defer timer.Stop()
		deadlineC = timer.C
	}
	select {
	case o := <-j.done:
		switch {
		case o.status == 200:
			writeResult(w, 200, o.res)
		case o.res != nil:
			s.writePartial(w, o.status, o.err, o.res)
		default:
			s.writeError(w, o.status, o.err, 0)
		}
		j.release()
	case <-deadlineC:
		// Respond now; the batcher still owns the job and will count
		// the timeout exactly once when it processes (and drops) it.
		j.cancelled.Store(true)
		s.so.cancelled.With("deadline").Inc()
		s.writeError(w, http.StatusGatewayTimeout, "deadline expired", 0)
		j.release()
	case <-r.Context().Done():
		// Client hung up. Before this counter existed the disconnect
		// was invisible: `cancelled` was set and nothing else moved, so
		// disconnect-driven withdrawals were indistinguishable from
		// deadline drops in the eewa_serve_* families.
		j.cancelled.Store(true)
		s.so.cancelled.With("disconnect").Inc()
		j.release()
	}
}

// handleJobsBatch admits N jobs in one pass and waits for all of them.
// Each item resolves to the same status and body shape the single-job
// endpoint would have produced; the overall HTTP status is 200 only if
// every job completed, otherwise the severest admission signal (429
// for backpressure, then 504, then 400). Batch jobs have no per-job
// wall timer — queued expiry is still enforced at batch formation.
func (s *Server) handleJobsBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	in := getIngest()
	defer putIngest(in)
	in.readBody(r.Body, maxBatchBodyBytes)
	reqs, err := s.decodeBatch(in)
	if err != nil {
		s.so.rejected.With("invalid").Inc()
		s.writeError(w, http.StatusBadRequest, "decoding batch: "+err.Error(), 0)
		return
	}
	if len(reqs) == 0 {
		s.so.rejected.With("invalid").Inc()
		s.writeError(w, http.StatusBadRequest, "batch has no jobs", 0)
		return
	}
	if len(reqs) > maxBatchJobs {
		s.so.rejected.With("invalid").Inc()
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d jobs exceeds the limit %d", len(reqs), maxBatchJobs), 0)
		return
	}

	// One admission pass: every job is accepted, then stamped with one
	// reading, then placed before any is waited on, so the next flush
	// batches the request together.
	items, jobs := in.batchScratch(len(reqs))
	// The handler's reference on every admitted job is dropped exactly
	// once, whichever way the request ends.
	defer func() {
		for _, j := range jobs {
			if j != nil {
				j.release()
			}
		}
	}()
	refuse := func(i int, j *job, rej *Rejection) {
		s.noteRejection(rej)
		j.release()
		items[i] = BatchItem{Status: rej.Status, Error: rej.Msg}
		if rej.Status != http.StatusGatewayTimeout {
			items[i].RetryAfter = retryAfterSecs
		}
	}
	for i := range reqs {
		j, err := s.newJob(reqs[i])
		if err != nil {
			s.so.rejected.With("invalid").Inc()
			items[i] = BatchItem{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		if rej := s.accept(j); rej != nil {
			refuse(i, j, rej)
			continue
		}
		jobs[i] = j
	}
	enqueued := s.now()
	for i, j := range jobs {
		if j == nil {
			continue
		}
		j.enqueued = enqueued
		if rej := s.place(j); rej != nil {
			jobs[i] = nil
			refuse(i, j, rej)
		}
	}
	// One wake-up per shard the request touched, after the last job is
	// in: waking per job would let the batcher run off with the first
	// few and split what the client sent as one batch.
	for si, sh := range s.shards {
		for _, j := range jobs {
			if j != nil && j.shard == si {
				sh.wakeBatcher()
				break
			}
		}
	}

	for i, j := range jobs {
		if j == nil {
			continue
		}
		select {
		case o := <-j.done:
			items[i] = BatchItem{Status: o.status, Result: o.res, Error: o.err}
		case <-r.Context().Done():
			// Client hung up: cancel this job and everything still
			// pending, then bail without a response.
			for _, jj := range jobs[i:] {
				if jj != nil {
					jj.cancelled.Store(true)
					s.so.cancelled.With("disconnect").Inc()
				}
			}
			return
		}
	}

	overall := http.StatusOK
	var rejected, expired, invalid bool
	for i := range items {
		switch items[i].Status {
		case http.StatusOK:
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			rejected = true
		case http.StatusGatewayTimeout:
			expired = true
		default:
			invalid = true
		}
	}
	switch {
	case rejected:
		overall = http.StatusTooManyRequests
		w.Header().Set("Retry-After", s.static.retryAfterStr)
	case expired:
		overall = http.StatusGatewayTimeout
	case invalid:
		overall = http.StatusBadRequest
	}
	writeBatch(w, overall, items)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
	writeJSON(w, 200, s.Stats())
}

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
	writeJSON(w, 200, s.RouterStats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		// Same back-off hint the 429/503 job path sends, so probes and
		// clients behave uniformly during drain.
		w.Header().Set("Retry-After", s.static.retryAfterStr)
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}
