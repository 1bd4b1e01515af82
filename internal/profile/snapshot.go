package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/machine"
)

// Snapshot is a serializable workload profile — the paper's §IV-D
// offline-profiling mode: "for a parallel application that does not
// launch tasks in batches, we can collect the workload information of
// the tasks by profiling the application offline. Once the information
// is collected, we can use the workload-aware frequency adjuster and
// the preference-based task scheduler to improve the energy efficiency
// of the application in the later executions."
//
// A Snapshot carries everything the adjuster needs to decide a
// configuration before the first task runs: the frequency ladder it
// was measured on, the ideal iteration time, and the task classes.
type Snapshot struct {
	// Freqs is the ladder the profile was collected on (GHz,
	// descending). A snapshot only transfers to machines with the
	// same ladder.
	Freqs []float64 `json:"freqs"`
	// T is the ideal iteration time in seconds (the all-fast batch
	// duration the profile was normalized against).
	T float64 `json:"ideal_time_s"`
	// Classes are the profiled task classes, descending AvgWork.
	Classes []Class `json:"classes"`
}

// Snapshot captures the profiler's current classes together with the
// ideal time T.
func (p *Profiler) Snapshot(T float64) *Snapshot {
	return &Snapshot{
		Freqs:   append([]float64(nil), p.ladder...),
		T:       T,
		Classes: slices.Clone(p.Classes()),
	}
}

// Validate checks internal consistency and, when ladder is non-nil,
// compatibility with the target machine.
func (s *Snapshot) Validate(ladder machine.FreqLadder) error {
	if s.T <= 0 {
		return fmt.Errorf("profile: snapshot has non-positive ideal time %g", s.T)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("profile: snapshot has no classes")
	}
	for i, c := range s.Classes {
		if c.Count <= 0 || c.AvgWork <= 0 {
			return fmt.Errorf("profile: snapshot class %d (%s) degenerate", i, c.Name)
		}
		// MaxWork bounds how far a class can be down-clocked before a
		// single task overruns T (task indivisibility — see
		// cctable.BuildGranular). A zero or missing MaxWork in a
		// hand-edited or truncated snapshot would silently disable that
		// bound; a MaxWork below AvgWork is arithmetically impossible
		// for a max over the samples that produced the average.
		if c.MaxWork <= 0 {
			return fmt.Errorf("profile: snapshot class %d (%s) has non-positive max work %g", i, c.Name, c.MaxWork)
		}
		if c.MaxWork < c.AvgWork-1e-12 {
			return fmt.Errorf("profile: snapshot class %d (%s) has max work %g below average %g", i, c.Name, c.MaxWork, c.AvgWork)
		}
		if !(c.MemFrac >= 0 && c.MemFrac <= 1) {
			return fmt.Errorf("profile: snapshot class %d (%s) has mem frac %g outside [0, 1]", i, c.Name, c.MemFrac)
		}
		if i > 0 && c.AvgWork > s.Classes[i-1].AvgWork+1e-12 {
			return fmt.Errorf("profile: snapshot classes not sorted at %d", i)
		}
	}
	if ladder != nil {
		if len(ladder) != len(s.Freqs) {
			return fmt.Errorf("profile: snapshot ladder has %d levels, machine has %d", len(s.Freqs), len(ladder))
		}
		for i, f := range s.Freqs {
			if f != ladder[i] {
				return fmt.Errorf("profile: snapshot frequency %g != machine %g at level %d", f, ladder[i], i)
			}
		}
	}
	return nil
}

// Encode writes the snapshot as indented JSON.
func (s *Snapshot) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// DecodeSnapshot reads a snapshot written by Encode.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("profile: decoding snapshot: %w", err)
	}
	return &s, nil
}
