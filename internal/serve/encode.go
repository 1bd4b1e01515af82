package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// Pooled, allocation-free response encoding for the ingest hot path.
//
// The wire format is pinned by the replay suite: whatever
// json.NewEncoder(w).SetIndent("", "  ").Encode produced before must
// come out byte-identical now. The fast encoder therefore reproduces
// encoding/json's exact float formatting ('f' format, switching to 'e'
// below 1e-6 or at 1e21, with the two-digit exponent trim) and bails
// to the legacy encoder the moment a value falls outside its safe
// subset — a NaN/Inf, or a string containing anything beyond plain
// printable ASCII (encoding/json escapes <, >, & and control bytes;
// the fast path emits none of them). Fixed bodies (drain 503s, the
// handler-timer 504) are rendered once at server construction by the
// legacy encoder itself, so their bytes are identical by construction.

var respPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// retryAfterSecs is the backoff hint, in whole seconds, that 429 and
// 503 responses carry in their Retry-After header and retry_after_s.
const retryAfterSecs = 1

// staticBodies holds the canonical bytes of the fixed responses and
// the precomputed Retry-After header value.
type staticBodies struct {
	retryAfterStr   string
	drainCluster    []byte // 503, route(): cluster draining
	drainShards     []byte // 503, route(): every shard draining
	deadlineExpired []byte // 504, handler wall timer
	expiredAtAdm    []byte // 504, admission fast-fail
	expiredQueued   []byte // 504, dropped at batch formation
}

// canonicalJSON renders v exactly as writeJSON does (indented, with
// the encoder's trailing newline).
func canonicalJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

func (sb *staticBodies) init() {
	sb.retryAfterStr = strconv.Itoa(retryAfterSecs)
	sb.drainCluster = canonicalJSON(errorBody{Error: "server is draining, not admitting new jobs", RetryAfter: retryAfterSecs})
	sb.drainShards = canonicalJSON(errorBody{Error: "every shard is draining, not admitting new jobs", RetryAfter: retryAfterSecs})
	sb.deadlineExpired = canonicalJSON(errorBody{Error: "deadline expired"})
	sb.expiredAtAdm = canonicalJSON(errorBody{Error: "deadline already expired at admission"})
	sb.expiredQueued = canonicalJSON(errorBody{Error: "deadline expired while queued"})
}

// static returns the precomputed body for a fixed message, or nil.
func (sb *staticBodies) static(status int, msg string) []byte {
	switch status {
	case 503:
		switch msg {
		case "server is draining, not admitting new jobs":
			return sb.drainCluster
		case "every shard is draining, not admitting new jobs":
			return sb.drainShards
		}
	case 504:
		switch msg {
		case "deadline expired":
			return sb.deadlineExpired
		case "deadline already expired at admission":
			return sb.expiredAtAdm
		case "deadline expired while queued":
			return sb.expiredQueued
		}
	}
	return nil
}

// writeBody commits status and writes a fully rendered body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// The append* renderers below share one failure protocol: ok is sticky.
// A value outside the fast subset sets *ok false and the caller, which
// checks it once at the end, discards the buffer and falls back to
// writeJSON.

// appendJSONString appends s as a JSON string if it is plain printable
// ASCII with nothing encoding/json would escape (including the HTML
// set <, >, &).
func appendJSONString(b []byte, s string, ok *bool) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			*ok = false
			return b
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f exactly as encoding/json renders a
// float64.
func appendJSONFloat(b []byte, f float64, ok *bool) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		*ok = false
		return b
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims a two-digit exponent's leading zero:
		// 1e-09 → 1e-9.
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// floatMemo holds, per JobResult float field, the bits of its last
// rendering and where in the buffer it sits, so a repeat is a copy
// (DESIGN.md §12). Bits, not values: 0 == -0, but they render apart.
type floatMemo [4]struct {
	bits     uint64
	from, to int // the rendering is b[from:to]; to == 0: none yet
}

// appendFloat appends f, the value of float field k.
func (m *floatMemo) appendFloat(b []byte, k int, f float64, ok *bool) []byte {
	e, bits := &m[k], math.Float64bits(f)
	if e.to > 0 && e.bits == bits {
		return append(b, b[e.from:e.to]...)
	}
	from := len(b)
	b = appendJSONFloat(b, f, ok)
	e.bits, e.from, e.to = bits, from, len(b)
	return b
}

// appendLine starts a new line at nesting depth, in the layout of
// json.Encoder.SetIndent("", "  ").
func appendLine(b []byte, depth int) []byte {
	b = append(b, '\n')
	for ; depth > 0; depth-- {
		b = append(b, ' ', ' ')
	}
	return b
}

// appendMember starts an object member or array element on its own
// line at depth — after a comma unless it is the first — with key, the
// member's `"name": ` text ("" for an array element).
func appendMember(b []byte, depth int, key string) []byte {
	if c := b[len(b)-1]; c != '{' && c != '[' {
		b = append(b, ',')
	}
	return append(appendLine(b, depth), key...)
}

// appendJobResult appends res as an object whose braces sit at nesting
// depth (0 = top level), its floats through m.
func appendJobResult(b []byte, res *JobResult, depth int, m *floatMemo, ok *bool) []byte {
	d := depth + 1
	b = append(b, '{')
	b = strconv.AppendUint(appendMember(b, d, `"job": `), res.Job, 10)
	b = appendJSONString(appendMember(b, d, `"tenant": `), res.Tenant, ok)
	b = appendJSONString(appendMember(b, d, `"func": `), res.Func, ok)
	b = strconv.AppendInt(appendMember(b, d, `"tasks": `), int64(res.Tasks), 10)
	b = strconv.AppendInt(appendMember(b, d, `"tasks_run": `), int64(res.TasksRun), 10)
	b = strconv.AppendInt(appendMember(b, d, `"batch": `), int64(res.Batch), 10)
	if res.Shard != nil {
		b = strconv.AppendInt(appendMember(b, d, `"shard": `), int64(*res.Shard), 10)
	}
	b = m.appendFloat(appendMember(b, d, `"queue_ms": `), 0, res.QueueMS, ok)
	b = m.appendFloat(appendMember(b, d, `"batch_ms": `), 1, res.BatchMS, ok)
	b = m.appendFloat(appendMember(b, d, `"energy_j": `), 2, res.EnergyJ, ok)
	b = m.appendFloat(appendMember(b, d, `"energy_attr_j": `), 3, res.EnergyAttrJ, ok)
	b = strconv.AppendInt(appendMember(b, d, `"steals": `), int64(res.Steals), 10)
	b = appendJSONString(appendMember(b, d, `"policy": `), res.Policy, ok)
	return append(appendLine(b, depth), '}')
}

// appendErrorBody appends the errorBody envelope, left open for further
// members.
func appendErrorBody(b []byte, msg string, retryAfter int, ok *bool) []byte {
	b = append(b, '{')
	b = appendJSONString(appendMember(b, 1, `"error": `), msg, ok)
	if retryAfter > 0 {
		b = strconv.AppendInt(appendMember(b, 1, `"retry_after_s": `), int64(retryAfter), 10)
	}
	return b
}

// appendBatchResponse appends BatchResponse{Jobs: items}: per item
// status, then result / error / retry_after_s under their omitempty
// rules.
func appendBatchResponse(b []byte, items []BatchItem, ok *bool) []byte {
	if items == nil {
		*ok = false // the stdlib renders a nil slice as null
		return b
	}
	var m floatMemo
	b = append(appendMember(append(b, '{'), 1, `"jobs": `), '[')
	for i := range items {
		it := &items[i]
		b = append(appendMember(b, 2, ""), '{')
		b = strconv.AppendInt(appendMember(b, 3, `"status": `), int64(it.Status), 10)
		if it.Result != nil {
			b = appendJobResult(appendMember(b, 3, `"result": `), it.Result, 3, &m, ok)
		}
		if it.Error != "" {
			b = appendJSONString(appendMember(b, 3, `"error": `), it.Error, ok)
		}
		if it.RetryAfter != 0 {
			b = strconv.AppendInt(appendMember(b, 3, `"retry_after_s": `), int64(it.RetryAfter), 10)
		}
		b = append(appendLine(b, 2), '}')
	}
	if len(items) > 0 {
		b = appendLine(b, 1)
	}
	return append(appendLine(append(b, ']'), 0), '}')
}

// commitFast ends a response rendered into a pooled buffer: when the
// renderer stayed inside the fast subset it writes b plus the encoder's
// trailing newline; either way the buffer goes back to the pool. A
// false return is the caller's cue to send the value through writeJSON.
func commitFast(w http.ResponseWriter, status int, bp *[]byte, b []byte, ok bool) bool {
	if ok {
		b = append(b, '\n')
		writeBody(w, status, b)
	}
	*bp = b[:0]
	respPool.Put(bp)
	return ok
}

// writeResult writes a JobResult response (200, or a bare-result
// shape).
func writeResult(w http.ResponseWriter, status int, res *JobResult) {
	bp, ok := respPool.Get().(*[]byte), true
	b := appendJobResult((*bp)[:0], res, 0, &floatMemo{}, &ok)
	if !commitFast(w, status, bp, b, ok) {
		writeJSON(w, status, res)
	}
}

// writeError writes the errorBody envelope (static bytes for the fixed
// messages, pooled fast encoding otherwise).
func (s *Server) writeError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	if body := s.static.static(status, msg); body != nil {
		writeBody(w, status, body)
		return
	}
	bp, ok := respPool.Get().(*[]byte), true
	b := append(appendErrorBody((*bp)[:0], msg, retryAfter, &ok), "\n}"...)
	if !commitFast(w, status, bp, b, ok) {
		writeJSON(w, status, errorBody{Error: msg, RetryAfter: retryAfter})
	}
}

// writePartial writes the 504 mid-batch envelope: the errorBody fields
// plus the partial result, nested one level deep.
func (s *Server) writePartial(w http.ResponseWriter, status int, msg string, res *JobResult) {
	bp, ok := respPool.Get().(*[]byte), true
	b := appendErrorBody((*bp)[:0], msg, 0, &ok)
	b = appendJobResult(appendMember(b, 1, `"partial": `), res, 1, &floatMemo{}, &ok)
	b = append(b, "\n}"...)
	if !commitFast(w, status, bp, b, ok) {
		writeJSON(w, status, struct {
			errorBody
			Partial *JobResult `json:"partial,omitempty"`
		}{errorBody{Error: msg}, res})
	}
}

// writeBatch writes the batch endpoint's per-job status array.
func writeBatch(w http.ResponseWriter, status int, items []BatchItem) {
	bp, ok := respPool.Get().(*[]byte), true
	b := appendBatchResponse((*bp)[:0], items, &ok)
	if !commitFast(w, status, bp, b, ok) {
		writeJSON(w, status, BatchResponse{Jobs: items})
	}
}
