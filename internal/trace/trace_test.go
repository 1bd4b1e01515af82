package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/task"
)

func sample() *Recorder {
	r := &Recorder{}
	r.Record(0, 0, 1.0, "a", 0)
	r.Record(0, 1.2, 2.0, "b", 0)
	r.Record(1, 0, 0.5, "b", 3)
	return r
}

func TestMakespan(t *testing.T) {
	r := sample()
	if got := r.Makespan(); got != 2.0 {
		t.Errorf("Makespan = %g, want 2", got)
	}
	empty := &Recorder{}
	if empty.Makespan() != 0 {
		t.Error("empty recorder makespan should be 0")
	}
}

func TestGantt(t *testing.T) {
	out := sample().Gantt(40)
	if !strings.Contains(out, "core  0") || !strings.Contains(out, "core  1") {
		t.Errorf("gantt missing core rows:\n%s", out)
	}
	// Core 0 runs at F0 ('#'), core 1 at F3 ('.').
	lines := strings.Split(out, "\n")
	var row0, row1 string
	for _, l := range lines {
		if strings.HasPrefix(l, "core  0") {
			row0 = l
		}
		if strings.HasPrefix(l, "core  1") {
			row1 = l
		}
	}
	if !strings.Contains(row0, "#") {
		t.Errorf("core 0 row missing F0 glyph: %s", row0)
	}
	if !strings.Contains(row1, ".") {
		t.Errorf("core 1 row missing F3 glyph: %s", row1)
	}
	// Idle gap on core 0 between 1.0 and 1.2 leaves blanks.
	if !strings.Contains(row0, " ") {
		t.Errorf("core 0 row has no idle gap: %s", row0)
	}
}

func TestGanttDegenerate(t *testing.T) {
	empty := &Recorder{}
	if out := empty.Gantt(40); !strings.Contains(out, "no spans") {
		t.Errorf("empty gantt = %q", out)
	}
	if out := sample().Gantt(0); !strings.Contains(out, "no spans") && out == "" {
		t.Error("zero width should degrade gracefully")
	}
}

func TestCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want 4 (header + 3 spans)", len(lines))
	}
	if lines[0] != "core,start,end,label,level,kind" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasSuffix(lines[1], ",exec") {
		t.Errorf("exec span row missing kind column: %q", lines[1])
	}
}

func TestBusyAndClassTime(t *testing.T) {
	r := sample()
	busy := r.BusyTime()
	if math.Abs(busy[0]-1.8) > 1e-9 || math.Abs(busy[1]-0.5) > 1e-9 {
		t.Errorf("BusyTime = %v", busy)
	}
}

// TestRecorderWithScheduler wires the recorder into a real simulation
// and checks the spans reconstruct the machine's busy time.
func TestRecorderWithScheduler(t *testing.T) {
	cfg := machine.Opteron16()
	w := task.MustGenerate("traced", 2, []task.ClassSpec{
		{Name: "a", Count: 16, MeanWork: 0.01, JitterFrac: 0.05},
	}, 3)
	rec := &Recorder{}
	params := sched.Params{}
	params.Recorder = rec
	res, err := sched.Run(cfg, w, policy.NewCilk(), params)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.ExecSpans()); got != 32 {
		t.Fatalf("recorded %d exec spans, want 32 tasks", got)
	}
	// The recorder also captures steal lead-ins and terminal idle waits
	// (the engine saw steals on this workload, and cores must wait at
	// the barrier), so the raw span list is strictly larger.
	if len(rec.spans) <= 32 {
		t.Errorf("recorded %d total spans, want steal/idle intervals beyond the 32 exec spans", len(rec.spans))
	}
	total := 0.0
	for _, busy := range rec.BusyTime() {
		total += busy
	}
	// Machine busy time additionally includes probe/steal lead-in
	// (≈ a microsecond per task), so allow that much slack.
	if math.Abs(total-res.BusyTime) > 1e-4 {
		t.Errorf("span time %g != machine busy time %g", total, res.BusyTime)
	}
	if rec.Makespan() > res.Makespan+1e-9 {
		t.Error("span end beyond makespan")
	}
	out := rec.Gantt(60)
	if !strings.Contains(out, "32 spans") {
		t.Errorf("gantt header wrong:\n%s", out)
	}
}

// BusyTime returns the summed execution-span durations per core (steal
// and idle intervals are excluded).
func (r *Recorder) BusyTime() map[int]float64 {
	out := map[int]float64{}
	for _, s := range r.spans {
		if s.Kind == KindExec {
			out[s.Core] += s.End - s.Start
		}
	}
	return out
}
