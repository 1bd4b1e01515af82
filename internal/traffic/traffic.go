// Package traffic is the production traffic layer for the serve tier
// and the simulator: open-loop arrival generation (Poisson, bursty
// MMPP, diurnal multi-period envelopes) over per-tenant cohorts, a
// versioned JSON trace schema, and bit-exact trace replay.
//
// The design splits load realism from determinism:
//
//   - Generation is open-loop: arrivals are a function of the trace
//     spec and seed alone, never of service completions — the regime
//     where 429/504 knees are honest (a closed-loop driver throttles
//     itself exactly when the system saturates). Every cohort draws
//     from its own stream seeded via xrand.Split(seed, hash(tenant)),
//     so adding a tenant never perturbs another tenant's arrivals —
//     the same discipline the sweep driver uses for grid cells.
//   - Replay is bit-exact where the engine allows it. Both
//     deterministic replayers form batches by the live batcher's rule
//     in virtual time (replayClock): ReplaySim is fully deterministic
//     (outcomes, energy, makespan), and ReplayServe runs the real
//     admission/batching pipeline under a virtual clock, making
//     per-tenant outcome counts (200/429/504) and batch composition a
//     function of the trace alone. ReplayWall trades that determinism
//     back for wall-clock load fidelity.
//
// A trace is a flat, offset-sorted event list. Offsets are seconds
// from trace start; deadlines are relative milliseconds (replay
// converts them to absolute deadlines against its own clock). The
// schema is versioned so capture artifacts stay replayable: readers
// reject versions they do not understand instead of misreading them.
package traffic

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion is the trace schema version. Bump it when a field
// changes meaning; Decode rejects versions it does not understand.
const SchemaVersion = 1

// Event is one job arrival.
type Event struct {
	// OffsetS is the arrival time in seconds from trace start. Events
	// in a trace are sorted by offset.
	OffsetS float64 `json:"offset_s"`
	// Tenant scopes the admission queue (the cohort identity).
	Tenant string `json:"tenant"`
	// Class is the task class — for serve replay, a servable kernel
	// name; for sim replay, any class label.
	Class string `json:"class"`
	// Count is the number of tasks in the job.
	Count int `json:"count"`
	// SizeBytes is the per-task corpus size (serve replay; 0 = server
	// default).
	SizeBytes int `json:"size_bytes,omitempty"`
	// Seed makes the job's corpus deterministic.
	Seed uint64 `json:"seed"`
	// WorkHintS is the per-task workload hint in seconds at F0. The
	// generator samples it with xrand.NormPos, so it is always
	// strictly positive in generated traces; replay falls back to a
	// default for hint-less (live-captured) events rather than ever
	// emitting a zero-work task.
	WorkHintS float64 `json:"work_hint_s,omitempty"`
	// DeadlineMS, when > 0, bounds the job's latency relative to its
	// arrival: offset + deadline is the absolute expiry in trace time.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Trace is the versioned artifact: a named, offset-sorted event list.
type Trace struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name"`
	// Seed records the generator seed (0 for captured traces).
	Seed uint64 `json:"seed,omitempty"`
	// DurationS is the trace horizon in seconds; every offset is
	// within [0, DurationS].
	DurationS float64 `json:"duration_s"`
	Events    []Event `json:"events"`
}

// Validate checks the trace is well-formed: a known schema version, a
// positive horizon, offsets sorted and in range, and every event with
// a class, a positive count and non-negative hints.
func (t *Trace) Validate() error {
	if t.SchemaVersion != SchemaVersion {
		return fmt.Errorf("traffic: trace schema version %d, want %d", t.SchemaVersion, SchemaVersion)
	}
	if t.DurationS <= 0 {
		return fmt.Errorf("traffic: trace %q has non-positive duration %g", t.Name, t.DurationS)
	}
	prev := 0.0
	for i := range t.Events {
		ev := &t.Events[i]
		switch {
		case ev.OffsetS < 0 || ev.OffsetS > t.DurationS:
			return fmt.Errorf("traffic: event %d offset %g outside [0, %g]", i, ev.OffsetS, t.DurationS)
		case ev.OffsetS < prev:
			return fmt.Errorf("traffic: event %d offset %g before predecessor %g (events must be sorted)", i, ev.OffsetS, prev)
		case ev.Class == "":
			return fmt.Errorf("traffic: event %d has empty class", i)
		case ev.Count <= 0:
			return fmt.Errorf("traffic: event %d has non-positive count %d", i, ev.Count)
		case ev.SizeBytes < 0:
			return fmt.Errorf("traffic: event %d has negative size_bytes %d", i, ev.SizeBytes)
		case ev.WorkHintS < 0:
			return fmt.Errorf("traffic: event %d has negative work hint %g", i, ev.WorkHintS)
		case ev.DeadlineMS < 0:
			return fmt.Errorf("traffic: event %d has negative deadline %d", i, ev.DeadlineMS)
		}
		prev = ev.OffsetS
	}
	return nil
}

// TotalTasks returns the summed task count across events.
func (t *Trace) TotalTasks() int {
	n := 0
	for i := range t.Events {
		n += t.Events[i].Count
	}
	return n
}

// Encode writes the trace as indented JSON with a trailing newline.
// The encoding is deterministic (struct fields in declaration order,
// shortest float representation), so the same trace always produces
// the same bytes — the property the golden-fixture gate relies on.
func Encode(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("traffic: encoding trace: %w", err)
	}
	return nil
}

// Decode parses and validates a trace, rejecting unknown schema
// versions and malformed events.
func Decode(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("traffic: decoding trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
