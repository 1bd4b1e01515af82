package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

func buildSample() *Registry {
	r := NewRegistry()
	r.Counter("jobs_total", "Jobs run.").Add(3)
	r.Gauge("depth", "Queue depth.").Set(7)
	h := r.LogHistogram("latency_seconds", "Latency.")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10)
	v := r.CounterVec("steals_total", "Steals by victim.", "victim")
	v.With("0").Add(4)
	v.With("1").Add(1)
	return r
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSample().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP jobs_total Jobs run.\n# TYPE jobs_total counter\njobs_total 3\n",
		"# TYPE depth gauge\ndepth 7\n",
		"# TYPE latency_seconds histogram\n",
		`latency_seconds_bucket{le="0.05078125"} 1`,
		`latency_seconds_bucket{le="0.5625"} 2`,
		`latency_seconds_bucket{le="11"} 3`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		"latency_seconds_sum 10.55\nlatency_seconds_count 3\n",
		`steals_total{victim="0"} 4`,
		`steals_total{victim="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Registration order must be stable: jobs before depth before
	// latency before steals.
	idx := func(s string) int { return strings.Index(out, "# TYPE "+s) }
	if !(idx("jobs_total") < idx("depth") && idx("depth") < idx("latency_seconds") && idx("latency_seconds") < idx("steals_total")) {
		t.Errorf("families out of registration order:\n%s", out)
	}

	// A second export must be byte-identical (determinism).
	var buf2 bytes.Buffer
	r := buildSample()
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("identical registries exported different text")
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	r := buildSample()
	snap := r.Snapshot()
	if snap["jobs_total"] != 3.0 {
		t.Errorf("jobs_total = %v", snap["jobs_total"])
	}
	kids, ok := snap["steals_total"].(map[string]any)
	if !ok || kids["victim=0"] != 4.0 {
		t.Errorf("steals_total = %v", snap["steals_total"])
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v", err)
	}
	hist, ok := decoded["latency_seconds"].(map[string]any)
	if !ok || hist["count"] != 3.0 {
		t.Errorf("latency snapshot = %v", decoded["latency_seconds"])
	}
}

// TestPromBoundsDistinctBelowNanosecond pins the exposition's float
// format: log-bucket bounds a few nanoseconds apart must print as
// distinct, strictly increasing le labels, and _sum must round-trip
// to the exact float the histogram holds.
func TestPromBoundsDistinctBelowNanosecond(t *testing.T) {
	r := NewRegistry()
	h := r.LogHistogram("tiny_seconds", "")
	for _, v := range []float64{1.0e-9, 1.1e-9, 1.25e-9} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	buckets := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "tiny_seconds_bucket{le="):
			le := line[len(`tiny_seconds_bucket{le="`):strings.Index(line, `"}`)]
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("le %q: %v", le, err)
			}
			if v <= prev {
				t.Errorf("le %q does not exceed the previous bound %g:\n%s", le, prev, buf.String())
			}
			prev = v
			buckets++
		case strings.HasPrefix(line, "tiny_seconds_sum "):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "tiny_seconds_sum "), 64)
			if err != nil || v != h.Sum() {
				t.Errorf("_sum line %q parses to %g (%v), want exactly %g", line, v, err, h.Sum())
			}
		}
	}
	if buckets != 4 { // three occupied buckets plus +Inf
		t.Errorf("%d bucket lines, want 4:\n%s", buckets, buf.String())
	}
}

// TestLabelValueEscaping pins label values to the exposition format's
// three escapes (backslash, double quote, line feed), each applied
// once, with every other byte passed through, so a scraper parses back
// the value that was recorded.
func TestLabelValueEscaping(t *testing.T) {
	for _, tc := range []struct{ value, want string }{
		{"acme", `t{tenant="acme"} 1`},
		{"team-7 eu/west", `t{tenant="team-7 eu/west"} 1`},
		{"é✓", `t{tenant="é✓"} 1`},
		{`a\b`, `t{tenant="a\\b"} 1`},
		{`say "hi"`, `t{tenant="say \"hi\""} 1`},
		{"two\nlines", `t{tenant="two\nlines"} 1`},
		{"ctl\x01\t", "t{tenant=\"ctl\x01\t\"} 1"},
		{`\"` + "\n", `t{tenant="\\\"\n"} 1`},
	} {
		r := NewRegistry()
		r.CounterVec("t", "", "tenant").With(tc.value).Inc()
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if got := lines[len(lines)-1]; got != tc.want {
			t.Errorf("label %q exports as %s, want %s", tc.value, got, tc.want)
		}
	}
}
