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
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
)

// refDecode is the pre-pooling decode path, verbatim: MaxBytesReader
// wrapping the body, strict stdlib decoding. The fast path must agree
// with it on every byte of behavior — acceptance, the decoded value,
// and the error text.
func refDecode(body []byte, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), limit))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// diffDecodeJob runs body through the pooled single-job decoder and the
// reference and describes the first disagreement ("" when they agree).
func diffDecodeJob(s *Server, body []byte) string {
	var want JobRequest
	wantErr := refDecode(body, maxBodyBytes, &want)

	in := getIngest()
	defer putIngest(in)
	in.readBody(bytes.NewReader(body), maxBodyBytes)
	gotErr := s.decodeJob(in)
	if d := diffErr(gotErr, wantErr); d != "" {
		return d
	}
	if gotErr == nil && in.req != want {
		return fmt.Sprintf("req %+v, want %+v", in.req, want)
	}
	return ""
}

// diffDecodeBatch is diffDecodeJob for the batch decoder.
func diffDecodeBatch(s *Server, body []byte) string {
	var want BatchRequest
	wantErr := refDecode(body, maxBatchBodyBytes, &want)

	in := getIngest()
	defer putIngest(in)
	in.readBody(bytes.NewReader(body), maxBatchBodyBytes)
	got, gotErr := s.decodeBatch(in)
	if d := diffErr(gotErr, wantErr); d != "" {
		return d
	}
	if gotErr == nil && !slices.Equal(got, want.Jobs) { // nil and empty are one answer: "batch has no jobs"
		return fmt.Sprintf("%d jobs %+v, want %d jobs %+v", len(got), got, len(want.Jobs), want.Jobs)
	}
	return ""
}

func diffErr(got, want error) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("err %v, want %v", got, want)
	case got != nil && got.Error() != want.Error():
		return fmt.Sprintf("err %q, want %q", got, want)
	}
	return ""
}

func caseName(body string) string {
	if len(body) > 60 {
		return body[:60] + "…"
	}
	return body
}

// jobDecodeCases is the single-job decode table (and FuzzDecodeJob's
// seed corpus).
func jobDecodeCases() []string {
	return []string{
		`{"func":"sha1"}`,
		`{"tenant":"acme","func":"md5","size_bytes":512,"count":3,"seed":42,"deadline_ms":100,"work_hint_s":0.25}`,
		`{"func":"lzw","deadline_at_ms":1754640000000}`,
		`{"func":"sha1","seed":18446744073709551615}`,
		`{"func":"sha1","work_hint_s":0.1}`,
		`{"func":"sha1","work_hint_s":123.456}`,
		`{"func":"sha1","work_hint_s":3}`,
		`{"func":"sha1","work_hint_s":1e-3}`,
		`{"func":"sha1","work_hint_s":2.5e-7}`,
		`{"func":"sha1","work_hint_s":-0.5}`,
		`{"func":"sha1","work_hint_s":0.00013083381906757807}`, // as json.Marshal renders a generated hint
		`{"func":"sha1","work_hint_s":-0}`,
		`{"func":"sha1","work_hint_s":4.9e-324}`,
		`{"func":"sha1","work_hint_s":1E+2}`,
		`{"func":"sha1","deadline_ms":-7}`,
		`{"tenant":"","func":"bwc","count":0}`,
		`  {  "func" : "dmc" ,  "count" : 2 }  `,
		`{"func":null,"tenant":null,"count":null}`,
		`{}`,
		// Bail-to-stdlib territory: the outcomes (and error strings)
		// still have to match the reference path exactly.
		`{"func":"sha1","bogus":1}`,
		`{"tenant":"a\"b","func":"sha1"}`,
		`{"tenant":"héllo","func":"sha1"}`,
		`{"size_bytes":1.5}`,
		`{"count":2e1}`,
		`{"seed":18446744073709551616}`,
		`{"seed":-1}`,
		`{"work_hint_s":1e400}`,
		`{"count":01}`,
		`{"func":"sha1",}`,
		`{"func" "sha1"}`,
		`{"func":}`,
		``,
		`[]`,
		`42`,
		`null`,
		`{"func":"sha1"} trailing garbage`,
		// Oversize bodies: a valid value completed inside the window is
		// accepted either way; a value still open past the limit is the
		// MaxBytesReader error — also when what fits is a whole number.
		`{"func":"sha1"}` + strings.Repeat(" ", maxBodyBytes),
		`{"tenant":"` + strings.Repeat("x", maxBodyBytes) + `","func":"sha1"}`,
		strings.Repeat("7", maxBodyBytes+1),
	}
}

func TestDecodeJobMatchesStdlib(t *testing.T) {
	s, _ := testServer(t, nil)
	t.Cleanup(func() { drain(t, s) })
	for _, body := range jobDecodeCases() {
		if d := diffDecodeJob(s, []byte(body)); d != "" {
			t.Errorf("%q: %s", caseName(body), d)
		}
	}
}

// The steady-state decode path must be allocation-free: pooled buffer,
// pooled request struct, interned tenant and func strings, and a work
// hint of any precision (the second body's is one json.Marshal renders
// for a generated trace).
func TestDecodeJobZeroAllocSteadyState(t *testing.T) {
	s, _ := testServer(t, nil)
	t.Cleanup(func() { drain(t, s) })

	in := getIngest()
	defer putIngest(in)
	for _, body := range [][]byte{
		[]byte(`{"tenant":"acme","func":"sha1","size_bytes":256,"count":4,"seed":9,"work_hint_s":0.5}`),
		[]byte(`{"tenant":"acme","func":"sha1","size_bytes":256,"count":4,"seed":9,"work_hint_s":0.00013083381906757807}`),
	} {
		rd := bytes.NewReader(body)
		decode := func() {
			rd.Reset(body)
			in.readBody(rd, maxBodyBytes)
			if err := s.decodeJob(in); err != nil {
				t.Fatal(err)
			}
		}
		decode() // warm the buffer and the tenant intern table
		if allocs := testing.AllocsPerRun(200, decode); allocs != 0 {
			t.Errorf("%s: steady-state decode allocates %.1f times per request, want 0", body, allocs)
		}
	}
}

// benchBatchBody is the body shape the benchmark's serve-batch workload
// posts: json.Marshal of a BatchRequest of n one-task sha1/256 B jobs.
func benchBatchBody(n int) []byte {
	breq := BatchRequest{Jobs: make([]JobRequest, n)}
	for i := range breq.Jobs {
		breq.Jobs[i] = JobRequest{Tenant: "batch-0", Func: "sha1", SizeBytes: 256, Count: 1, Seed: uint64(1000 + i)}
	}
	b, _ := json.Marshal(breq)
	return b
}

// batchDecodeCases is the batch decode table (and FuzzDecodeBatch's
// seed corpus, less the megabyte bodies).
func batchDecodeCases() []string {
	job := `{"func":"sha1","size_bytes":256}`
	return []string{
		string(benchBatchBody(64)),
		string(benchBatchBody(3)),
		`{"jobs":[` + job + `]}`,
		`{"jobs":[{},{"tenant":"a","func":"md5","count":2,"seed":7,"deadline_ms":5,"work_hint_s":0.5}]}`,
		`{"jobs":[]}`,
		`{"jobs":null}`,
		`{}`,
		`{"bogus":1}`,
		`{"Jobs":[` + job + `]}`,
		`{"jobs":[` + job + `],"jobs":[` + job + `,` + job + `]}`,
		`{"jobs":[` + job + `],"Jobs":[]}`,
		`{"jobs":[` + job + `,]}`,
		`{"jobs":[` + job + `],}`,
		`{"jobs":[,` + job + `]}`,
		`{"jobs":[` + job + ` ` + job + `]}`,
		`{"jobs":[` + job,
		`{"jobs":[{"func":"sha1"`,
		" {\n \"jobs\" :\t[ { \"func\" : \"dmc\" , \"count\" : 2 } ,\r\n {\"func\":\"lzw\"} ] } trailing bytes",
		`{"jobs":[{"func":"sha1","count":null}]}`,
		`{"jobs":[{"func":"sha1","bogus":1}]}`,
		`{"jobs":[{"tenant":"a\"b","func":"sha1"}]}`,
		`{"jobs":[{"work_hint_s":1e400}]}`,
		`{"jobs":[null,` + job + `]}`,
		`{"jobs":[1]}`,
		`{"jobs":{}}`,
		`{"jobs":"x"}`,
		`[1]`,
		`null`,
		``,
		`   `,
		string(benchBatchBody(maxBatchJobs)),
		string(benchBatchBody(maxBatchJobs + 1)),
		// Over the 1 MiB limit: a value that completes inside it decodes,
		// one that does not is the MaxBytesReader error.
		`{"jobs":[` + job + `]}` + strings.Repeat(" ", maxBatchBodyBytes),
		`{"jobs":[{"tenant":"` + strings.Repeat("x", maxBatchBodyBytes) + `","func":"sha1"}]}`,
		`{"jobs":[` + strings.Repeat(job+",", maxBatchBodyBytes/len(job)) + job + `]}`,
	}
}

func TestDecodeBatchMatchesStdlib(t *testing.T) {
	s, _ := testServer(t, nil)
	t.Cleanup(func() { drain(t, s) })
	for _, body := range batchDecodeCases() {
		if d := diffDecodeBatch(s, []byte(body)); d != "" {
			t.Errorf("%q: %s", caseName(body), d)
		}
	}
	// The shapes the benchmark and ordinary clients send must be the
	// fast path's, or the table above proves only that the fallback
	// equals itself.
	for _, body := range []string{string(benchBatchBody(64)), `{"jobs":[]}`, ` { "jobs" : [ {} , {"count":null} ] } x`} {
		if _, ok := s.parseBatch([]byte(body), nil); !ok {
			t.Errorf("%q: not parsed by the fast path", caseName(body))
		}
	}
}

// The batch endpoint's answer to a body it refuses is the parent
// handler's, byte for byte: 400 and the envelope around the stdlib
// decoder's own message, or the handler's count checks.
func TestBatchEndpointRefusalsMatchStdlib(t *testing.T) {
	s, _ := testServer(t, nil)
	t.Cleanup(func() { drain(t, s) })
	h := s.Handler()
	refused := 0
	for _, body := range batchDecodeCases() {
		var want BatchRequest
		msg := ""
		switch err := refDecode([]byte(body), maxBatchBodyBytes, &want); {
		case err != nil:
			msg = "decoding batch: " + err.Error()
		case len(want.Jobs) == 0:
			msg = "batch has no jobs"
		case len(want.Jobs) > maxBatchJobs:
			msg = fmt.Sprintf("batch of %d jobs exceeds the limit %d", len(want.Jobs), maxBatchJobs)
		default:
			continue
		}
		refused++
		got := httptest.NewRecorder()
		h.ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/v1/jobs:batch", strings.NewReader(body)))
		checkSame(t, caseName(body), got, refEncode(http.StatusBadRequest, errorBody{Error: msg}))
	}
	if refused < 20 {
		t.Errorf("only %d table bodies were refused; the table no longer covers the rejections", refused)
	}
}

// refEncode renders v through writeJSON — the legacy encoder whose
// bytes the replay suite pins.
func refEncode(status int, v any) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	writeJSON(w, status, v)
	return w
}

func checkSame(t *testing.T, name string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code {
		t.Errorf("%s: status %d, want %d", name, got.Code, want.Code)
	}
	if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
		t.Errorf("%s: content-type %q, want %q", name, g, w)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("%s: body\n%q\nwant\n%q", name, got.Body.Bytes(), want.Body.Bytes())
	}
}

func TestWriteResultMatchesStdlib(t *testing.T) {
	shard := 2
	floats := []float64{
		0, 1, 0.1, 0.25, 123.456789, 1e-6, 9.9e-7, 1e-7, 2.5e-7,
		1e20, 9.99e20, 1e21, 3.7e22, 5e-324, math.MaxFloat64, 0.0005100220,
	}
	for _, f := range floats {
		res := &JobResult{
			Job: 12345, Tenant: "acme", Func: "sha1", Tasks: 8, TasksRun: 7,
			Batch: 42, QueueMS: f, BatchMS: f * 3, EnergyJ: f / 7, EnergyAttrJ: f,
			Steals: 3, Policy: "eewa",
		}
		got := httptest.NewRecorder()
		writeResult(got, 200, res)
		checkSame(t, "result", got, refEncode(200, res))

		res.Shard = &shard
		got = httptest.NewRecorder()
		writeResult(got, 200, res)
		checkSame(t, "result+shard", got, refEncode(200, res))
	}

	// Outside the fast subset (string needing escapes) the fallback is
	// writeJSON itself, so equality is trivial — but exercise the seam.
	res := &JobResult{Job: 1, Tenant: "a<b>&c", Func: "sha1", Policy: "eewa"}
	got := httptest.NewRecorder()
	writeResult(got, 200, res)
	checkSame(t, "result-fallback", got, refEncode(200, res))
}

func TestWriteErrorAndPartialMatchStdlib(t *testing.T) {
	s, _ := testServer(t, nil)
	t.Cleanup(func() { drain(t, s) })

	// The drain 503s are pre-rendered with the server's own Retry-After
	// (the only value production callers ever pass).
	ra := retryAfterSecs
	msgs := []struct {
		status, retry int
		msg           string
	}{
		{503, ra, "server is draining, not admitting new jobs"},
		{503, ra, "every shard is draining, not admitting new jobs"},
		{504, 0, "deadline expired"},
		{504, 0, "deadline already expired at admission"},
		{504, 0, "deadline expired while queued"},
		{429, 2, `tenant "acme" queue full (130/128 tasks)`},
		{429, 2, "in-flight budget full (513/512 tasks)"},
		{400, 0, "size_bytes 2000000 outside (0, 1048576]"},
		{400, 0, "weird message with \"quotes\" and <html> & unicode é"},
	}
	for _, m := range msgs {
		got := httptest.NewRecorder()
		s.writeError(got, m.status, m.msg, m.retry)
		checkSame(t, "error", got, refEncode(m.status, errorBody{Error: m.msg, RetryAfter: m.retry}))
	}

	res := &JobResult{Job: 9, Tenant: "beta", Func: "md5", Tasks: 4, TasksRun: 2,
		Batch: 3, QueueMS: 1.25, BatchMS: 0.5, EnergyJ: 0.125, EnergyAttrJ: 0.0625, Policy: "eewa"}
	got := httptest.NewRecorder()
	s.writePartial(got, 504, "deadline expired mid-batch", res)
	checkSame(t, "partial", got, refEncode(504, struct {
		errorBody
		Partial *JobResult `json:"partial,omitempty"`
	}{errorBody{Error: "deadline expired mid-batch"}, res}))
}

// batchEncodeCases is the batch response table: every item shape the
// handler produces, and the values that must take the fallback.
func batchEncodeCases() []struct {
	name  string
	items []BatchItem
	fast  bool
} {
	shard := 0
	res := func(job uint64, f float64) *JobResult {
		return &JobResult{Job: job, Tenant: "acme", Func: "sha1", Tasks: 4, TasksRun: 4, Batch: 17,
			QueueMS: f, BatchMS: f * 3, EnergyJ: f / 7, EnergyAttrJ: 2.5e-7, Steals: 1, Policy: "cilk"}
	}
	partial := res(3, 0.125)
	partial.TasksRun = 1
	sharded := res(4, 1e21)
	sharded.Shard = &shard
	mixed := []BatchItem{
		{Status: 200, Result: res(1, 0.75)},
		{Status: 429, Error: "in-flight budget full (513/512 tasks)", RetryAfter: 2},
		{Status: 504, Error: "deadline expired mid-batch", Result: partial},
		{Status: 504, Error: "deadline already expired at admission"},
		{Status: 400, Error: "size_bytes 2000000 outside (0, 1048576]"},
		{Status: 503, Error: "every shard is draining, not admitting new jobs", RetryAfter: 1},
	}
	return []struct {
		name  string
		items []BatchItem
		fast  bool
	}{
		{"empty", []BatchItem{}, true},
		{"all-200", []BatchItem{{Status: 200, Result: res(1, 0)}, {Status: 200, Result: res(2, 123.456789)}}, true},
		{"mixed", mixed, true},
		{"sharded", []BatchItem{{Status: 200, Result: sharded}}, true},
		{"zero-item", []BatchItem{{}}, true},
		{"negative-retry", []BatchItem{{Status: 429, Error: "x", RetryAfter: -1}}, true},
		{"nil", nil, false},
		{"quoted-tenant", []BatchItem{{Status: 429, Error: `tenant "acme" queue full (130/128 tasks)`, RetryAfter: 2}}, false},
		{"escapes", []BatchItem{{Status: 200, Result: res(1, 1)},
			{Status: 400, Error: `unknown func "a<b>é" (want one of [sha1])`}}, false},
		{"tenant-escape", []BatchItem{{Status: 200, Result: &JobResult{Tenant: "a&b", Func: "sha1", Policy: "eewa"}}}, false},
		{"nan", []BatchItem{{Status: 200, Result: res(1, math.NaN())}}, false},
		{"inf", []BatchItem{{Status: 200, Result: res(1, math.Inf(-1))}}, false},
		// The encoder's float memo copies a repeat from the field's last
		// rendering: wherever repeats fall and whatever lies between
		// them, the bytes must still be the stdlib's.
		{"repeat-adjacent", []BatchItem{{Status: 200, Result: res(1, 0.1)}, {Status: 200, Result: res(2, 0.1)},
			{Status: 200, Result: res(3, 0.1)}}, true},
		{"repeat-apart", []BatchItem{{Status: 200, Result: res(1, 0.1)}, {Status: 200, Result: res(2, 123.456789)},
			{Status: 200, Result: res(3, 0.1)}, {Status: 200, Result: res(4, 123.456789)}}, true},
		{"repeat-around-error", []BatchItem{{Status: 200, Result: res(1, 0.1)},
			{Status: 429, Error: "in-flight budget full (513/512 tasks)", RetryAfter: 2},
			{Status: 504, Error: "deadline expired mid-batch", Result: res(2, 0.1)}}, true},
		// 0 and -0 are equal floats with different bytes.
		{"signed-zero", []BatchItem{{Status: 200, Result: res(1, 0)}, {Status: 200, Result: res(2, math.Copysign(0, -1))},
			{Status: 200, Result: res(3, 0)}, {Status: 200, Result: res(4, math.Copysign(0, -1))}}, true},
		// Both sides of the 'f'/'e' switches at 1e-6 and 1e21.
		{"format-switch", []BatchItem{{Status: 200, Result: res(1, 1e-6)}, {Status: 200, Result: res(2, belowMicro)},
			{Status: 200, Result: res(3, belowMicro)}, {Status: 200, Result: res(4, 1e-6)},
			{Status: 200, Result: res(5, 1e21)}, {Status: 200, Result: res(6, below1e21)},
			{Status: 200, Result: res(7, below1e21)}, {Status: 200, Result: res(8, 1e21)}}, true},
	}
}

// The largest floats below encoding/json's two format switches: the
// last rendered in 'e' below 1e-6 and the last rendered in 'f' below
// 1e21.
var (
	belowMicro = math.Nextafter(1e-6, 0)
	below1e21  = math.Nextafter(1e21, 0)
)

func TestWriteBatchMatchesStdlib(t *testing.T) {
	for _, c := range batchEncodeCases() {
		ok := true
		b := appendBatchResponse(nil, c.items, &ok)
		if ok != c.fast {
			t.Errorf("%s: fast path %v, want %v", c.name, ok, c.fast)
		}
		if want := canonicalJSON(BatchResponse{Jobs: c.items}); ok && !bytes.Equal(append(b, '\n'), want) {
			t.Errorf("%s: appendBatchResponse\n%q\nwant\n%q", c.name, b, want)
		}
		// Through the writer — fast path or fallback — the response is
		// what the legacy encoder sends, headers included.
		got := httptest.NewRecorder()
		writeBatch(got, 429, c.items)
		checkSame(t, c.name, got, refEncode(429, BatchResponse{Jobs: c.items}))
	}
}

// discardWriter is an http.ResponseWriter that costs the handler under
// test nothing: no recorder buffers, no header map churn.
type discardWriter struct {
	hdr    http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// rewindBody is a request body that can be pointed at the same bytes
// again without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// batchPoster returns a function that posts body to the batch endpoint
// in-process the way the benchmark's closed loop does — one reused
// request, a writer that discards — warmed until the job pool and the
// runtime's arenas have reached their size.
func batchPoster(tb testing.TB, s *Server, body []byte) func() {
	h := s.Handler()
	w := &discardWriter{hdr: http.Header{}}
	rb := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs:batch", nil)
	req.Body = rb
	post := func() {
		rb.Reset(body)
		h.ServeHTTP(w, req)
		if w.status != 200 {
			tb.Fatalf("batch answered %d", w.status)
		}
	}
	for i := 0; i < 20; i++ {
		post()
	}
	return post
}

// BenchmarkBatchRequest is serve-batch's request in a loop, for
// profiles: go test -run '^$' -bench BatchRequest -cpuprofile … .
// /plain is the gated, untraced server; /obs attaches a registry, so
// the difference between the two is what tracing costs per request.
func BenchmarkBatchRequest(b *testing.B) {
	for _, c := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"plain", nil},
		{"obs", obs.NewRegistry()},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := New(Config{Workers: 2, Machine: machine.Opteron16(), Policy: "cilk", MaxBatch: 64, Obs: c.reg})
			if err != nil {
				b.Fatal(err)
			}
			post := batchPoster(b, s, benchBatchBody(64))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
			b.StopTimer()
			if err := s.Drain(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSubmitParallel puts concurrent submitters on one shard's
// admission lock: each goroutine is its own tenant and submits, then
// waits for, one sha1/256 B job at a time, so -cpu 1,2,4 is the number
// of admitters contending with each other and with the batcher.
func BenchmarkSubmitParallel(b *testing.B) {
	s, err := New(Config{Workers: 2, Machine: machine.Opteron16(), Policy: "cilk"})
	if err != nil {
		b.Fatal(err)
	}
	var tenants atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := JobRequest{Tenant: fmt.Sprintf("bench-%d", tenants.Add(1)), Func: "sha1", SizeBytes: 256}
		for pb.Next() {
			p, rej := s.Submit(req)
			if rej != nil {
				b.Errorf("submit refused: %s", rej.Msg)
				return
			}
			if status, _, msg := p.Wait(); status != 200 {
				b.Errorf("job answered %d: %s", status, msg)
				return
			}
		}
	})
	b.StopTimer()
	if err := s.Drain(context.Background()); err != nil {
		b.Fatal(err)
	}
}

// The batch codec allocates nothing on a warm pool, and a whole 64-job
// request — decode, admit, run, encode — stays at what the runtime and
// the SHA-1 payloads allocate per job (the parent commit: 4.1).
func TestBatchZeroAllocSteadyState(t *testing.T) {
	s, _ := testServer(t, func(c *Config) { c.Workers = 2; c.Policy = "cilk"; c.MaxBatch = 64 })
	t.Cleanup(func() { drain(t, s) })
	const jobs = 64
	body := benchBatchBody(jobs)

	rd := bytes.NewReader(body)
	in := getIngest()
	res := JobResult{Job: 1, Tenant: "batch-0", Func: "sha1", Tasks: 1, TasksRun: 1, Batch: 3,
		QueueMS: 0.0123, BatchMS: 0.25, EnergyJ: 0.0175, EnergyAttrJ: 0.00025, Policy: "cilk"}
	var out []byte
	codec := func() {
		rd.Reset(body)
		in.readBody(rd, maxBatchBodyBytes)
		reqs, err := s.decodeBatch(in)
		if err != nil || len(reqs) != jobs {
			t.Fatalf("decoded %d jobs, error %v", len(reqs), err)
		}
		items, _ := in.batchScratch(len(reqs))
		for i := range items {
			items[i] = BatchItem{Status: 200, Result: &res}
		}
		ok := true
		if out = appendBatchResponse(out[:0], items, &ok); !ok {
			t.Fatal("response left the fast path")
		}
	}
	codec() // warm the buffers and the tenant table
	if allocs := testing.AllocsPerRun(100, codec); allocs != 0 {
		t.Errorf("decodeBatch + appendBatchResponse allocate %.1f times per request, want 0", allocs)
	}
	putIngest(in)

	if raceEnabled {
		return // the request path below lives on sync.Pool
	}
	post := batchPoster(t, s, body)
	perJob := testing.AllocsPerRun(100, post) / jobs
	t.Logf("%.2f allocations per job", perJob)
	if perJob > 1.5 {
		t.Errorf("a %d-job batch request allocates %.2f times per job, want <= 1.5", jobs, perJob)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s, ts := testServer(t, nil)

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, out
	}

	// Happy path: every job completes, one response per job, in order.
	resp, body := post(`{"jobs":[
		{"tenant":"a","func":"sha1","count":2,"size_bytes":256},
		{"tenant":"b","func":"md5","count":1,"size_bytes":256}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var bres BatchResponse
	if err := json.Unmarshal(body, &bres); err != nil {
		t.Fatal(err)
	}
	if len(bres.Jobs) != 2 {
		t.Fatalf("batch items %d, want 2", len(bres.Jobs))
	}
	for i, it := range bres.Jobs {
		if it.Status != 200 || it.Result == nil || it.Result.TasksRun != 2-i {
			t.Errorf("item %d = %+v, want 200 with %d tasks run", i, it, 2-i)
		}
	}
	if bres.Jobs[0].Result.Tenant != "a" || bres.Jobs[1].Result.Tenant != "b" {
		t.Errorf("batch items out of request order: %+v", bres.Jobs)
	}

	// A mixed batch: invalid jobs get per-item 400s, the rest still
	// run; overall status reflects the worst admission signal.
	resp, body = post(`{"jobs":[
		{"func":"sha1","count":1,"size_bytes":256},
		{"func":"nope","count":1,"size_bytes":256}]}`)
	if resp.StatusCode != 400 {
		t.Fatalf("mixed batch status %d: %s", resp.StatusCode, body)
	}
	bres = BatchResponse{}
	if err := json.Unmarshal(body, &bres); err != nil {
		t.Fatal(err)
	}
	if bres.Jobs[0].Status != 200 || bres.Jobs[1].Status != 400 ||
		!strings.Contains(bres.Jobs[1].Error, `unknown func "nope"`) {
		t.Errorf("mixed batch items %+v", bres.Jobs)
	}

	// Shape errors.
	if resp, _ := post(`{"jobs":[]}`); resp.StatusCode != 400 {
		t.Errorf("empty batch status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{"bogus":1}`); resp.StatusCode != 400 {
		t.Errorf("unknown-field batch status %d, want 400", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/v1/jobs:batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch status %d, want 405", r.StatusCode)
	}

	drain(t, s)
}
