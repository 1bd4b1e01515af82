package serve

import (
	"encoding/json"
	"errors"
	"io"
	"slices"
	"strconv"
	"sync"
)

// Pooled, allocation-free request decoding for the ingest hot path,
// shared by POST /v1/jobs and POST /v1/jobs:batch.
//
// The old path built a json.Decoder over an http.MaxBytesReader per
// request — several heap objects and a reflective decode per job. This
// path reads the body into a pooled buffer and hand-parses the two
// fixed shapes the job endpoints accept: one JobRequest object, or
// {"jobs":[object,…]}. The parser is deliberately strict: the moment it
// sees anything it is not certain about — an escape sequence, a
// non-ASCII byte, a number out of range, an unknown or repeated
// envelope key, malformed syntax — it bails and the same buffered
// bytes are re-parsed with encoding/json into a zeroed value.
// The fallback is both the correctness net (exotic-but-valid bodies
// still decode, with identical results) and the error bank (clients
// keep the exact stdlib error strings the tests and traces pin).

// maxBodyBytes mirrors the old http.MaxBytesReader(…, 1<<16) bound on a
// single job's body (a batch's is maxBatchBodyBytes).
const maxBodyBytes = 1 << 16

// errBodyTooLarge reproduces MaxBytesReader's error text, which the
// old path surfaced through the decoder verbatim.
var errBodyTooLarge = errors.New("http: request body too large")

// ingest is the pooled per-request decode state: the body buffer, the
// single endpoint's request struct and the batch endpoint's per-job
// arrays, none escaping to the heap between requests.
type ingest struct {
	buf []byte
	// cut is why buf ends where it does, as a decoder reading the body
	// through MaxBytesReader would have been told when it asked for
	// more: io.EOF at the body's own end, else the limit error or the
	// transport's.
	cut error
	req JobRequest

	jobs  []JobRequest // decoded batch
	items []BatchItem  // its response, in request order
	live  []*job       // its admitted jobs (nil where one was refused)
}

var ingestPool = sync.Pool{New: func() any { return &ingest{buf: make([]byte, 0, 2048)} }}

func getIngest() *ingest { return ingestPool.Get().(*ingest) }

// putIngest zeroes what the request wrote, so everything inside the
// arrays' capacity is zero between requests, and drops a body buffer
// that grew past the single-job bound: a hostile 1 MiB batch upload
// must not pin its megabyte in the pool.
func putIngest(in *ingest) {
	in.req = JobRequest{}
	clear(in.jobs)
	clear(in.items)
	clear(in.live)
	if cap(in.buf) > maxBodyBytes {
		in.buf = nil
	}
	ingestPool.Put(in)
}

// batchScratch returns the zeroed item and job arrays of an n-job batch.
func (in *ingest) batchScratch(n int) ([]BatchItem, []*job) {
	in.items = slices.Grow(in.items[:0], n)[:n]
	in.live = slices.Grow(in.live[:0], n)[:n]
	return in.items, in.live
}

// readBody slurps r into the pooled buffer up to limit bytes — the
// window MaxBytesReader would have fed a decoder — reading one byte
// further only to learn whether the body overflowed.
func (in *ingest) readBody(r io.Reader, limit int) {
	buf := in.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit+1)])
		buf = buf[:len(buf)+n]
		switch {
		case len(buf) > limit:
			in.buf, in.cut = buf[:limit], errBodyTooLarge
			return
		case err != nil:
			in.buf, in.cut = buf, err
			return
		}
	}
}

// cutReader replays a buffered body to the fallback decoder exactly as
// the old reader chain delivered it: the bytes, then what ended them. A value that completes inside the window therefore
// still decodes, and one that needs more input fails with that error's
// text.
type cutReader struct {
	b   []byte
	cut error
}

func (r *cutReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, r.cut
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// stdlibDecode is the fallback: one JSON value from the buffered body
// into v, unknown fields rejected, trailing bytes ignored.
func (in *ingest) stdlibDecode(v any) error {
	dec := json.NewDecoder(&cutReader{in.buf, in.cut})
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeJob parses the buffered body into in.req with the semantics of
// the old json.NewDecoder(MaxBytesReader(body)) path.
func (s *Server) decodeJob(in *ingest) error {
	in.req = JobRequest{}
	if s.parseJobRequest(in.buf, &in.req) {
		return nil
	}
	in.req = JobRequest{}
	return in.stdlibDecode(&in.req)
}

// decodeBatch is decodeJob for a BatchRequest body. The jobs it returns
// live in the pooled ingest on the fast path and on the heap after a
// fallback; either way they are the caller's until putIngest.
func (s *Server) decodeBatch(in *ingest) ([]JobRequest, error) {
	var ok bool
	if in.jobs, ok = s.parseBatch(in.buf, in.jobs); ok {
		return in.jobs, nil
	}
	var breq BatchRequest
	err := in.stdlibDecode(&breq)
	return breq.Jobs, err
}

// tenantTable interns tenant strings so steady-state decoding of a
// known tenant allocates nothing (map lookup keyed by string(bytes) is
// allocation-free). Bounded, so a hostile tenant stream cannot grow it
// without limit — overflow tenants just pay the one string allocation.
type tenantTable struct {
	mu sync.RWMutex
	m  map[string]string
}

const maxInternedTenants = 4096

func (t *tenantTable) intern(b []byte) string {
	t.mu.RLock()
	s, ok := t.m[string(b)]
	t.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]string, 64)
	}
	if len(t.m) < maxInternedTenants {
		t.m[s] = s
	}
	t.mu.Unlock()
	return s
}

// internFunc returns the canonical string for a known kernel name
// without allocating.
func internFunc(b []byte) string {
	for _, f := range funcs {
		if string(b) == f {
			return f
		}
	}
	return string(b)
}

// jparser is the strict fast parser. Every method returns ok=false to
// mean "bail to encoding/json", never to report a specific error.
type jparser struct {
	b []byte
	i int
	s *Server
}

func (p *jparser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *jparser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// next skips whitespace and consumes c.
func (p *jparser) next(c byte) bool {
	p.ws()
	return p.eat(c)
}

// null consumes a literal null (stdlib semantics: null into any field
// is a no-op).
func (p *jparser) null() bool {
	if p.i+4 <= len(p.b) && string(p.b[p.i:p.i+4]) == "null" {
		p.i += 4
		return true
	}
	return false
}

// rawString scans a string token containing only printable ASCII and
// no escapes — the only strings the fast path accepts — and returns
// the bytes between the quotes.
func (p *jparser) rawString() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			out := p.b[start:p.i]
			p.i++
			return out, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// number scans one strictly valid JSON number token. Invalid syntax
// (leading zeros, bare dots, missing exponent digits) bails so the
// stdlib decoder reports its canonical error.
func (p *jparser) number() (tok []byte, hasFracExp bool, ok bool) {
	start := p.i
	if p.eat('-') {
	}
	switch {
	case p.eat('0'):
		// A zero may not be followed by another digit.
		if p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			return nil, false, false
		}
	case p.i < len(p.b) && p.b[p.i] >= '1' && p.b[p.i] <= '9':
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			p.i++
		}
	default:
		return nil, false, false
	}
	if p.eat('.') {
		hasFracExp = true
		n := p.i
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			p.i++
		}
		if p.i == n {
			return nil, false, false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		hasFracExp = true
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		n := p.i
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			p.i++
		}
		if p.i == n {
			return nil, false, false
		}
	}
	return p.b[start:p.i], hasFracExp, true
}

// atoiBytes parses a decimal integer token (digits with optional '-').
func atoiBytes(tok []byte) (int64, bool) {
	i, neg := 0, false
	if tok[0] == '-' {
		neg = true
		i = 1
	}
	if len(tok)-i > 19 {
		return 0, false
	}
	var n uint64
	for ; i < len(tok); i++ {
		n = n*10 + uint64(tok[i]-'0')
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n), true
	}
	if n >= 1<<63 {
		return 0, false
	}
	return int64(n), true
}

// atouBytes parses a decimal uint64 token.
func atouBytes(tok []byte) (uint64, bool) {
	if tok[0] == '-' || len(tok) > 20 {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(tok); i++ {
		d := uint64(tok[i] - '0')
		if n > (1<<64-1-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// parseJobRequest is the fast path for a single JobRequest body.
// Returns false to fall back to encoding/json. Trailing bytes after the
// closing brace are ignored, exactly as json.Decoder.Decode reads one
// value and stops.
func (s *Server) parseJobRequest(b []byte, req *JobRequest) bool {
	p := jparser{b: b, s: s}
	p.ws()
	return p.object(req)
}

// parseBatch is the fast path for a batch body: exactly
// { "jobs" : [ object (, object)* ] }, decoded over jobs. "jobs": null, a
// second or differently-cased key, a non-object element and a batch
// past maxBatchJobs (whose error message needs the full count, and
// whose jobs must not size the pooled array) are all the stdlib's.
func (s *Server) parseBatch(b []byte, jobs []JobRequest) ([]JobRequest, bool) {
	p := jparser{b: b, s: s}
	jobs = jobs[:0]
	if !p.next('{') {
		return jobs, false
	}
	p.ws()
	if key, ok := p.rawString(); !ok || string(key) != "jobs" || !p.next(':') || !p.next('[') {
		return jobs, false
	}
	for p.ws(); !p.eat(']'); p.ws() {
		if len(jobs) == maxBatchJobs || (len(jobs) > 0 && !p.eat(',')) {
			return jobs, false
		}
		p.ws()
		jobs = append(jobs, JobRequest{})
		if !p.object(&jobs[len(jobs)-1]) {
			return jobs, false
		}
	}
	return jobs, p.next('}')
}

// object parses one JobRequest object into req and leaves the cursor
// after its closing brace.
func (p *jparser) object(req *JobRequest) bool {
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.eat('}') {
		return true
	}
	for {
		key, ok := p.rawString()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		if !p.field(key, req) {
			return false
		}
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		return p.eat('}')
	}
}

// field parses one "key": value pair into req.
func (p *jparser) field(key []byte, req *JobRequest) bool {
	switch string(key) {
	case "tenant":
		if p.null() {
			return true
		}
		v, ok := p.rawString()
		if !ok {
			return false
		}
		req.Tenant = p.s.tenants.intern(v)
	case "func":
		if p.null() {
			return true
		}
		v, ok := p.rawString()
		if !ok {
			return false
		}
		req.Func = internFunc(v)
	case "size_bytes":
		return p.intField(&req.SizeBytes)
	case "count":
		return p.intField(&req.Count)
	case "seed":
		if p.null() {
			return true
		}
		tok, frac, ok := p.number()
		if !ok || frac {
			return false
		}
		v, ok := atouBytes(tok)
		if !ok {
			return false
		}
		req.Seed = v
	case "deadline_ms":
		return p.int64Field(&req.DeadlineMS)
	case "deadline_at_ms":
		return p.int64Field(&req.DeadlineAtMS)
	case "work_hint_s":
		if p.null() {
			return true
		}
		tok, _, ok := p.number()
		if !ok {
			return false
		}
		// The conversion encoding/json itself makes; an error (1e400
		// is ErrRange) bails so the stdlib reports it.
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return false
		}
		req.WorkHintS = v
	default:
		// Unknown field: the stdlib decoder owns the error message.
		return false
	}
	return true
}

func (p *jparser) intField(dst *int) bool {
	if p.null() {
		return true
	}
	tok, frac, ok := p.number()
	if !ok || frac {
		return false
	}
	v, ok := atoiBytes(tok)
	if !ok || int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	return true
}

func (p *jparser) int64Field(dst *int64) bool {
	if p.null() {
		return true
	}
	tok, frac, ok := p.number()
	if !ok || frac {
		return false
	}
	v, ok := atoiBytes(tok)
	if !ok {
		return false
	}
	*dst = v
	return true
}
