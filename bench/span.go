package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// maxSpans bounds one traced run's span file. Every call is still
// timed for the per-layer metrics; only the record is dropped, and the
// drop count is written with the file.
const maxSpans = 1 << 17

// span is one timed call from the harness into a layer. Start and End
// are nanoseconds since the recorder was made; Parent is the index of
// the span that caused this one (-1 for a root); Req groups the spans of
// one request, batch or simulation.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32
	Req    int32
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0      time.Time
	spans   []span
	next    atomic.Int32
	dropped atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, maxSpans)}
}

// now is the recorder's clock; a nil recorder still answers, so callers
// that need the time for a metric do not branch.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// add stores a finished span and returns its index (-1 when dropped or
// not tracing). Safe for concurrent use: each caller owns one slot.
func (r *recorder) add(name string, start, end int64, parent, req int32) int32 {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if int(i) >= len(r.spans) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{Name: name, Start: start, End: end, Parent: parent, Req: req}
	return i
}

// reserve takes a slot for a span whose children finish first, so they
// can name it as their parent; close it with finish.
func (r *recorder) reserve(name string, start int64, parent, req int32) int32 {
	return r.add(name, start, start, parent, req)
}

func (r *recorder) finish(i int32, end int64) {
	if r != nil && i >= 0 {
		r.spans[i].End = end
	}
}

func (r *recorder) recorded() []span {
	if r == nil {
		return nil
	}
	n := int(r.next.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	return r.spans[:n]
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its child spans cover. Children
// may overlap one another (two workers inside one batch), so the
// covered part is the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(kids[int32(i)], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	edge := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < edge {
			s = edge
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			edge = e
		}
	}
	return total
}

// write stores the spans as one JSON document in dir.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	spans := r.recorded()
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns\",\"dropped\":%d,\"self_ns\":{", workload, r.dropped.Load())
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q:%d", name, self[name])
	}
	w.WriteString("},\"spans\":[\n")
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"req\":%d}",
			i, s.Name, s.Start, s.End, s.Parent, s.Req)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}
