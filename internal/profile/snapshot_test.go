package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/xrand"
)

// Regression for the MaxWork ingestion hole: a snapshot whose classes
// carry MaxWork == 0 (e.g. hand-edited JSON, or a file written by a
// tool that dropped the field) must fail Validate — before this check
// such a snapshot sailed through to cctable.Table.RebuildGranular, where
// MaxWork 0 means "unknown" and silently disables the
// task-indivisibility bound.
func TestSnapshotValidateRejectsZeroMaxWork(t *testing.T) {
	s := &Snapshot{
		Freqs: []float64(ladder),
		T:     0.25,
		Classes: []Class{
			{Name: "heavy", Count: 4, AvgWork: 0.2, MaxWork: 0},
		},
	}
	err := s.Validate(ladder)
	if err == nil {
		t.Fatal("MaxWork == 0 should be rejected")
	}
	if !strings.Contains(err.Error(), "max work") {
		t.Errorf("error should name max work, got: %v", err)
	}
}

func TestSnapshotValidateRejectsMaxBelowAvg(t *testing.T) {
	s := &Snapshot{
		Freqs: []float64(ladder),
		T:     0.25,
		Classes: []Class{
			{Name: "heavy", Count: 4, AvgWork: 0.2, MaxWork: 0.1},
		},
	}
	if err := s.Validate(ladder); err == nil {
		t.Fatal("MaxWork < AvgWork should be rejected")
	}
	// Equality up to float noise is fine: a single-sample class has
	// MaxWork == AvgWork exactly.
	s.Classes[0].MaxWork = s.Classes[0].AvgWork
	if err := s.Validate(ladder); err != nil {
		t.Fatalf("MaxWork == AvgWork should validate, got: %v", err)
	}
}

// A decoded hand-edited snapshot missing the max_work_s field entirely
// must be rejected, not defaulted.
func TestDecodeSnapshotMissingMaxWork(t *testing.T) {
	raw := `{
	  "freqs": [2.5, 1.8, 1.3, 0.8],
	  "ideal_time_s": 0.25,
	  "classes": [{"name": "heavy", "count": 4, "avg_work_s": 0.2}]
	}`
	s, err := DecodeSnapshot(bytes.NewBufferString(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(ladder); err == nil {
		t.Error("snapshot without max_work_s should fail Validate")
	}
}

// Profiler.Snapshot and the JSON round trip must preserve MaxWork
// bit-exactly — the indivisibility bound depends on the precise value.
func TestSnapshotPreservesMaxWorkExactly(t *testing.T) {
	p := New(ladder)
	p.Ref("heavy").Record(0.2, 0, 0)
	p.Ref("heavy").Record(0.217348915, 0, 0)
	p.Ref("light").Record(0.0113, 1, 0)
	snap := p.Snapshot(0.25)

	want := map[string]float64{}
	for _, c := range p.Classes() {
		want[c.Name] = c.MaxWork
	}
	for _, c := range snap.Classes {
		if c.MaxWork != want[c.Name] {
			t.Errorf("Snapshot dropped MaxWork for %s: %g != %g", c.Name, c.MaxWork, want[c.Name])
		}
	}

	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got.Classes {
		if c.MaxWork != snap.Classes[i].MaxWork {
			t.Errorf("decode changed MaxWork for %s: %g != %g", c.Name, c.MaxWork, snap.Classes[i].MaxWork)
		}
	}
	if err := got.Validate(ladder); err != nil {
		t.Errorf("round-tripped snapshot invalid: %v", err)
	}
}

// randomLadder builds a valid descending frequency ladder of 2–6
// levels.
func randomLadder(rng *xrand.RNG) machine.FreqLadder {
	n := 2 + rng.Intn(5)
	out := make(machine.FreqLadder, n)
	f := 1.0 + rng.Float64()*3.0
	for i := range out {
		out[i] = f
		f *= 0.5 + rng.Float64()*0.4 // strictly decreasing
	}
	return out
}

// Property: a snapshot produced by a real profiler on a random ladder
// with random classes survives encode→decode→Validate, and the decoded
// struct equals the original field-for-field.
func TestSnapshotRoundTripProperty(t *testing.T) {
	rng := xrand.New(0xEE44)
	for iter := 0; iter < 200; iter++ {
		lad := randomLadder(rng)
		p := New(lad)
		classes := 1 + rng.Intn(6)
		for c := 0; c < classes; c++ {
			name := string(rune('a' + c))
			samples := 1 + rng.Intn(8)
			for s := 0; s < samples; s++ {
				dur := 1e-4 + rng.Float64()*0.3
				level := rng.Intn(len(lad))
				p.Ref(name).Record(dur, level, 0)
			}
		}
		snap := p.Snapshot(0.05 + rng.Float64())

		if err := snap.Validate(lad); err != nil {
			t.Fatalf("iter %d: fresh snapshot invalid: %v", iter, err)
		}
		var buf bytes.Buffer
		if err := snap.Encode(&buf); err != nil {
			t.Fatalf("iter %d: encode: %v", iter, err)
		}
		got, err := DecodeSnapshot(&buf)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if err := got.Validate(lad); err != nil {
			t.Fatalf("iter %d: decoded snapshot invalid: %v", iter, err)
		}
		if got.T != snap.T || len(got.Freqs) != len(snap.Freqs) || len(got.Classes) != len(snap.Classes) {
			t.Fatalf("iter %d: shape changed: %+v vs %+v", iter, got, snap)
		}
		for i := range got.Freqs {
			if got.Freqs[i] != snap.Freqs[i] {
				t.Fatalf("iter %d: freq %d changed: %g != %g", iter, i, got.Freqs[i], snap.Freqs[i])
			}
		}
		for i := range got.Classes {
			a, b := got.Classes[i], snap.Classes[i]
			if a != b {
				t.Fatalf("iter %d: class %d changed: %+v != %+v", iter, i, a, b)
			}
		}
	}
}

// MemFrac arrives from hand-edited or foreign snapshots too: anything
// but a number in [0, 1] fails Validate.
func TestSnapshotValidateMemFrac(t *testing.T) {
	for _, tc := range []struct {
		name    string
		memFrac float64
		ok      bool
	}{
		{"zero", 0, true},
		{"interior", 0.6, true},
		{"one", 1, true},
		{"NaN", math.NaN(), false},
		{"negative", -0.01, false},
		{"above one", 1.01, false},
		{"Inf", math.Inf(1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &Snapshot{
				Freqs:   []float64(ladder),
				T:       0.25,
				Classes: []Class{{Name: "c", Count: 4, AvgWork: 0.2, MaxWork: 0.2, MemFrac: tc.memFrac}},
			}
			if err := s.Validate(ladder); (err == nil) != tc.ok {
				t.Errorf("Validate(mem frac %g) = %v, want ok=%v", tc.memFrac, err, tc.ok)
			}
		})
	}
}

// A profiler-produced snapshot (MemFrac 0) encodes byte for byte as it
// did before Class had a MemFrac: the bytes below were captured then.
func TestSnapshotEncodingUnchangedByMemFrac(t *testing.T) {
	p := New(ladder)
	p.Ref("heavy").Record(0.2, 0, 0)
	p.Ref("heavy").Record(0.217348915, 1, 0.5)
	p.Ref("light").Record(0.0113, 3, 0)
	var buf bytes.Buffer
	if err := p.Snapshot(0.25).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "{\n  \"freqs\": [\n    2.5,\n    1.8,\n    1.3,\n    0.8\n  ],\n  \"ideal_time_s\": 0.25,\n  \"classes\": [\n    {\n      \"name\": \"heavy\",\n      \"count\": 2,\n      \"avg_work_s\": 0.1782456094,\n      \"max_work_s\": 0.2\n    },\n    {\n      \"name\": \"light\",\n      \"count\": 1,\n      \"avg_work_s\": 0.003616,\n      \"max_work_s\": 0.003616\n    }\n  ]\n}\n"
	if got := buf.String(); got != want {
		t.Errorf("encoding changed:\n%s\nwant:\n%s", got, want)
	}
}
