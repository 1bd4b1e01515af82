// Package trace records per-core execution spans from a simulation and
// renders them as an ASCII Gantt chart or CSV — the visual counterpart
// of the paper's schedule diagrams (Fig. 1) for arbitrary runs.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Kind classifies a span: task execution, steal/search overhead, or
// terminal idle time before the batch barrier.
type Kind int

const (
	// KindExec is a task execution (the only kind before the recorder
	// grew steal/idle capture; the zero value keeps old spans valid).
	KindExec Kind = iota
	// KindSteal is work-search overhead: the probe/steal lead-in before
	// a remotely acquired task starts executing.
	KindSteal
	// KindIdle is the terminal wait at the batch barrier after a core
	// has exhausted every pool it may take from.
	KindIdle
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindExec:
		return "exec"
	case KindSteal:
		return "steal"
	case KindIdle:
		return "idle"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Span is one interval on one core.
type Span struct {
	Core       int
	Start, End float64 // simulated seconds
	Label      string  // task class (exec), or "steal"/"idle"
	Level      int     // frequency level during the span
	Kind       Kind
}

// Recorder accumulates spans. It satisfies the sched.Recorder hook (and
// the extended sched.SpanRecorder hook, so the engine also hands it
// steal and idle intervals). The zero value is ready to use and retains
// every span; set MaxSpans before recording to bound memory.
type Recorder struct {
	// MaxSpans, when > 0, caps the retained spans. Once the cap is
	// reached each new span evicts the oldest (drop-oldest), so a
	// long-running recording keeps the most recent window at a fixed
	// ~56 bytes per span; evictions are counted in Dropped. 0 keeps
	// everything (the historical behavior).
	MaxSpans int

	spans   []Span
	head    int // ring start once the cap is reached
	dropped uint64
}

// add appends a span, evicting the oldest when the cap is reached.
func (r *Recorder) add(s Span) {
	if r.MaxSpans > 0 && len(r.spans) >= r.MaxSpans {
		r.spans[r.head] = s
		r.head = (r.head + 1) % len(r.spans)
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// forEach visits every retained span in recording (chronological)
// order.
func (r *Recorder) forEach(fn func(Span)) {
	for i := r.head; i < len(r.spans); i++ {
		fn(r.spans[i])
	}
	for i := 0; i < r.head; i++ {
		fn(r.spans[i])
	}
}

// Len returns the number of retained spans.
func (r *Recorder) Len() int { return len(r.spans) }

// Dropped returns how many spans the MaxSpans cap has evicted.
func (r *Recorder) Dropped() uint64 { return r.dropped }

// Record implements the scheduler's trace hook: one task execution.
func (r *Recorder) Record(core int, start, end float64, label string, level int) {
	r.add(Span{Core: core, Start: start, End: end, Label: label, Level: level, Kind: KindExec})
}

// RecordSteal implements sched.SpanRecorder: the probe/steal lead-in
// interval before a stolen task runs. label carries the victim c-group.
func (r *Recorder) RecordSteal(core int, start, end float64, victimGroup int) {
	r.add(Span{Core: core, Start: start, End: end, Label: "steal", Level: victimGroup, Kind: KindSteal})
}

// RecordIdle implements sched.SpanRecorder: the terminal wait at the
// batch barrier.
func (r *Recorder) RecordIdle(core int, start, end float64) {
	r.add(Span{Core: core, Start: start, End: end, Label: "idle", Kind: KindIdle})
}

// ExecSpans returns only the task-execution spans.
func (r *Recorder) ExecSpans() []Span {
	out := make([]Span, 0, len(r.spans))
	r.forEach(func(s Span) {
		if s.Kind == KindExec {
			out = append(out, s)
		}
	})
	return out
}

// Makespan returns the latest span end (0 when empty).
func (r *Recorder) Makespan() float64 {
	m := 0.0
	r.forEach(func(s Span) {
		if s.End > m {
			m = s.End
		}
	})
	return m
}

// cores returns the sorted distinct core IDs seen.
func (r *Recorder) cores() []int {
	seen := map[int]bool{}
	r.forEach(func(s Span) { seen[s.Core] = true })
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// levelGlyphs maps frequency levels to bar glyphs: faster = denser.
var levelGlyphs = []byte{'#', '=', '-', '.', ':', '~', '_', '\''}

// Gantt renders one row per core, `width` characters across the full
// makespan. Busy time is drawn with a glyph encoding the frequency
// level ('#' fastest, then '=', '-', '.'); idle time is blank.
func (r *Recorder) Gantt(width int) string {
	exec := r.ExecSpans()
	if len(exec) == 0 || width <= 0 {
		return "(no spans)\n"
	}
	makespan := r.Makespan()
	if makespan <= 0 {
		return "(zero-length trace)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gantt: %d spans over %.4fs ('#'=F0, '='=F1, '-'=F2, '.'=F3)\n", len(exec), makespan)
	for _, c := range r.cores() {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, s := range exec {
			if s.Core != c {
				continue
			}
			lo := int(s.Start / makespan * float64(width))
			hi := int(s.End / makespan * float64(width))
			if hi >= width {
				hi = width - 1
			}
			glyph := levelGlyphs[s.Level%len(levelGlyphs)]
			for i := lo; i <= hi; i++ {
				row[i] = glyph
			}
		}
		fmt.Fprintf(&b, "core %2d |%s|\n", c, row)
	}
	return b.String()
}

// CSV writes every span (all kinds) as core,start,end,label,level,kind
// rows.
func (r *Recorder) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "core,start,end,label,level,kind"); err != nil {
		return err
	}
	var werr error
	r.forEach(func(s Span) {
		if werr != nil {
			return
		}
		_, werr = fmt.Fprintf(w, "%d,%.9f,%.9f,%s,%d,%s\n", s.Core, s.Start, s.End, s.Label, s.Level, s.Kind)
	})
	return werr
}
