package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file renders a Recorder as Chrome trace-event JSON — the legacy
// format Perfetto (https://ui.perfetto.dev) and chrome://tracing both
// ingest. The mapping:
//
//   - one thread track per core (pid 0, tid = core id), named via "M"
//     metadata events;
//   - every span becomes a ph "X" complete event (ts/dur in
//     microseconds); exec spans are named by task class, steal and idle
//     intervals by their kind, with the kind as the event category so
//     Perfetto can color and filter them;
//   - each core's frequency level becomes a counter track ("C" events
//     named "freq level core N"), sampled at every exec-span start and
//     closed at the makespan — the per-core view of the paper's Fig. 8
//     census.

// TraceEvent is one record of the Chrome trace-event format. Fields
// are a subset of the spec, sufficient for Perfetto's legacy JSON
// importer.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the top-level JSON object container.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

const usPerSec = 1e6

// TraceEvents converts the recorded spans into Chrome trace events.
// Events are ordered by timestamp (metadata first), which keeps the
// output deterministic and importers happy.
func (r *Recorder) TraceEvents() []TraceEvent {
	var out []TraceEvent
	cores := r.cores()
	for _, c := range cores {
		out = append(out, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: c,
			Args: map[string]any{"name": fmt.Sprintf("core %d", c)},
		})
		out = append(out, TraceEvent{
			Name: "thread_sort_index", Ph: "M", Pid: 0, Tid: c,
			Args: map[string]any{"sort_index": c},
		})
	}

	var spans []TraceEvent
	counterTimes := map[int][]TraceEvent{} // per core, freq samples
	for _, s := range r.spans {
		ev := TraceEvent{
			Name: s.Label,
			Ph:   "X",
			Ts:   s.Start * usPerSec,
			Dur:  (s.End - s.Start) * usPerSec,
			Pid:  0,
			Tid:  s.Core,
			Cat:  s.Kind.String(),
		}
		if s.Kind == KindExec {
			ev.Args = map[string]any{"level": s.Level}
			counterTimes[s.Core] = append(counterTimes[s.Core], TraceEvent{
				Name: fmt.Sprintf("freq level core %d", s.Core),
				Ph:   "C", Ts: s.Start * usPerSec, Pid: 0, Tid: s.Core,
				Args: map[string]any{"level": s.Level},
			})
		}
		spans = append(spans, ev)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Ts < spans[j].Ts })
	out = append(out, spans...)

	// Counter tracks: chronological per core, deduplicated to level
	// changes, closed with a final sample at the makespan.
	makespanUS := r.Makespan() * usPerSec
	for _, c := range cores {
		samples := counterTimes[c]
		if len(samples) == 0 {
			continue
		}
		sort.SliceStable(samples, func(i, j int) bool { return samples[i].Ts < samples[j].Ts })
		last := -1
		for _, s := range samples {
			lvl := s.Args["level"].(int)
			if lvl == last {
				continue
			}
			last = lvl
			out = append(out, s)
		}
		out = append(out, TraceEvent{
			Name: fmt.Sprintf("freq level core %d", c),
			Ph:   "C", Ts: makespanUS, Pid: 0, Tid: c,
			Args: map[string]any{"level": last},
		})
	}
	return out
}

// WriteTraceEvents writes the spans as a Chrome trace-event JSON file
// that Perfetto and chrome://tracing can open directly.
func (r *Recorder) WriteTraceEvents(w io.Writer) error {
	f := TraceFile{TraceEvents: r.TraceEvents(), DisplayTimeUnit: "ms"}
	if f.TraceEvents == nil {
		f.TraceEvents = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}
