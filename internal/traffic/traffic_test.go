package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/task"
)

// testSpec is a small two-cohort spec covering all three arrival
// kinds' parameters: an interactive cohort with tight deadlines and a
// batch cohort with heavy hinted work.
func testSpec() Spec {
	return Spec{
		Name:      "test",
		DurationS: 3,
		Seed:      42,
		Cohorts: []Cohort{
			{
				Tenant:  "interactive",
				Arrival: Arrival{Kind: ArrivalPoisson, RateJPS: 40},
				Mix: []ClassMix{
					{Class: "sha1", Weight: 3, Count: 2, SizeBytes: 1024},
					{Class: "md5", Weight: 1, Count: 1, SizeBytes: 2048},
				},
				DeadlineMeanS:   0.5,
				DeadlineStddevS: 0.1,
			},
			{
				Tenant: "batch",
				Arrival: Arrival{
					Kind: ArrivalDiurnal, RateJPS: 20,
					Periods: []Period{{PeriodS: 2, Amp: 0.8}, {PeriodS: 0.5, Amp: 0.3, Phase: 1}},
				},
				Mix: []ClassMix{
					{Class: "lzw", Weight: 1, Count: 4, SizeBytes: 4096,
						MeanWorkS: 200e-6, StddevWorkS: 100e-6},
				},
			},
		},
	}
}

func mustGenerate(t *testing.T, spec Spec) *Trace {
	t.Helper()
	tr, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func encode(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGenerateDeterministic(t *testing.T) {
	a := encode(t, mustGenerate(t, testSpec()))
	b := encode(t, mustGenerate(t, testSpec()))
	if !bytes.Equal(a, b) {
		t.Fatal("two generations of the same spec differ")
	}
}

// TestCohortIndependence: adding a tenant leaves every other cohort's
// event stream bit-identical, and reordering cohorts changes nothing.
func TestCohortIndependence(t *testing.T) {
	base := testSpec()
	ref := mustGenerate(t, base)

	grown := testSpec()
	grown.Cohorts = append([]Cohort{{
		Tenant:  "newcomer",
		Arrival: Arrival{Kind: ArrivalBursty, RateJPS: 15, BurstFactor: 5, MeanBurstS: 0.2, MeanCalmS: 0.8},
		Mix:     []ClassMix{{Class: "md5", Weight: 1}},
	}}, grown.Cohorts...) // prepended, so positions shift too
	tr2 := mustGenerate(t, grown)

	byTenant := func(tr *Trace, tenant string) []Event {
		var out []Event
		for _, ev := range tr.Events {
			if ev.Tenant == tenant {
				out = append(out, ev)
			}
		}
		return out
	}
	for _, tenant := range []string{"interactive", "batch"} {
		a, b := byTenant(ref, tenant), byTenant(tr2, tenant)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("cohort %q stream changed when a tenant was added (%d vs %d events)",
				tenant, len(a), len(b))
		}
	}
	if n := len(byTenant(tr2, "newcomer")); n == 0 {
		t.Error("newcomer cohort generated no events")
	}
}

func TestRoundTrip(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	first := encode(t, tr)
	dec, err := Decode(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, dec) {
		t.Fatal("decoded trace differs from the generated one")
	}
	if second := encode(t, dec); !bytes.Equal(first, second) {
		t.Fatal("re-encoding the decoded trace changed its bytes")
	}
}

func TestDecodeRejectsUnknownVersion(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte(`{"schema_version":99,"duration_s":1,"events":[]}`))); err == nil {
		t.Fatal("want error for unknown schema version")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []Trace{
		{SchemaVersion: SchemaVersion, DurationS: 0},
		{SchemaVersion: SchemaVersion, DurationS: 1,
			Events: []Event{{OffsetS: 2, Class: "sha1", Count: 1}}},
		{SchemaVersion: SchemaVersion, DurationS: 1,
			Events: []Event{{OffsetS: 0.5, Class: "sha1", Count: 1}, {OffsetS: 0.1, Class: "sha1", Count: 1}}},
		{SchemaVersion: SchemaVersion, DurationS: 1,
			Events: []Event{{OffsetS: 0.5, Class: "", Count: 1}}},
		{SchemaVersion: SchemaVersion, DurationS: 1,
			Events: []Event{{OffsetS: 0.5, Class: "sha1", Count: 0}}},
	}
	for i, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

// TestGeneratedWorkHintsPositive: the NormPos discipline — no
// generated trace ever carries a zero or negative work hint, even with
// a stddev that dwarfs the mean.
func TestGeneratedWorkHintsPositive(t *testing.T) {
	spec := Spec{
		Name: "hints", DurationS: 5, Seed: 7,
		Cohorts: []Cohort{{
			Tenant:  "t",
			Arrival: Arrival{Kind: ArrivalPoisson, RateJPS: 200},
			Mix: []ClassMix{{Class: "sha1", Weight: 1,
				MeanWorkS: 1e-6, StddevWorkS: 1e-3}}, // stddev ≫ mean
			DeadlineMeanS: 1e-6, DeadlineStddevS: 1, // likewise for deadlines
		}},
	}
	tr := mustGenerate(t, spec)
	if len(tr.Events) == 0 {
		t.Fatal("no events")
	}
	for i, ev := range tr.Events {
		if ev.WorkHintS <= 0 {
			t.Fatalf("event %d has non-positive work hint %g", i, ev.WorkHintS)
		}
		if ev.DeadlineMS < 1 {
			t.Fatalf("event %d has deadline %d < 1ms", i, ev.DeadlineMS)
		}
	}
}

func TestReplaySimDeterministic(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	opt := SimReplay{Cores: 4, Seed: 3}
	lg1, res1, err := ReplaySim(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	lg2, res2, err := ReplaySim(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := lg1.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := lg2.Canonical()
	if !bytes.Equal(c1, c2) {
		t.Fatalf("sim replay logs differ:\n%s\nvs\n%s", c1, c2)
	}
	// Modeled roll-ups are bit-exact, not merely close.
	if math.Float64bits(res1.Energy) != math.Float64bits(res2.Energy) {
		t.Errorf("energy not bit-identical: %v vs %v", res1.Energy, res2.Energy)
	}
	if math.Float64bits(res1.Makespan) != math.Float64bits(res2.Makespan) {
		t.Errorf("makespan not bit-identical: %v vs %v", res1.Makespan, res2.Makespan)
	}
	if lg1.EnergyJ <= 0 || lg1.Batches == 0 {
		t.Errorf("implausible sim log: %+v", lg1)
	}
}

func serveReplayOpt() ServeReplay {
	return ServeReplay{
		Config: serve.Config{
			Workers: 2,
			Machine: machine.Generic(2),
			Policy:  "eewa",
			Seed:    7,
			Obs:     obs.NewRegistry(),
		},
	}
}

// TestReplayServeDeterministic is the acceptance gate: the same trace
// replayed twice through the real serve pipeline produces identical
// per-tenant outcome counts and batch composition (Canonical bytes).
func TestReplayServeDeterministic(t *testing.T) {
	tr := mustGenerate(t, testSpec())
	lg1, err := ReplayServe(tr, serveReplayOpt())
	if err != nil {
		t.Fatal(err)
	}
	lg2, err := ReplayServe(tr, serveReplayOpt())
	if err != nil {
		t.Fatal(err)
	}
	c1, err := lg1.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := lg2.Canonical()
	if !bytes.Equal(c1, c2) {
		t.Fatalf("serve replay logs differ:\n%s\nvs\n%s", c1, c2)
	}

	// Outcome conservation: every event resolved to exactly one status.
	perTenant := map[string]int{}
	for _, ev := range tr.Events {
		perTenant[ev.Tenant]++
	}
	for tenant, want := range perTenant {
		tc := lg1.Tenants[tenant]
		if tc == nil {
			t.Fatalf("tenant %q missing from log", tenant)
		}
		got := tc.OK + tc.Rejected + tc.Unavailable + tc.Invalid + tc.Dropped
		if got != uint64(want) {
			t.Errorf("tenant %q: %d outcomes for %d events (%+v)", tenant, got, want, *tc)
		}
	}
	if lg1.MeasuredEnergyJ <= 0 {
		t.Errorf("no measured energy: %+v", lg1)
	}
}

// replayBoth replays tr through serve (2 workers) and sim (2 cores)
// with the same MaxBatch and fails unless both report the same batch
// count and the same per-tenant 200/504 counts and tasks run.
func replayBoth(t *testing.T, tr *Trace, maxBatch int) (*Log, *Log) {
	t.Helper()
	opt := serveReplayOpt()
	opt.Config.MaxBatch = maxBatch
	sv, err := ReplayServe(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	sm, _, err := ReplaySim(tr, SimReplay{Cores: 2, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	for tenant, tc := range sv.Tenants {
		st := sm.Tenants[tenant]
		if st == nil {
			t.Fatalf("tenant %q missing from sim log", tenant)
		}
		if tc.OK != st.OK || tc.Dropped != st.Dropped || tc.TasksRun != st.TasksRun {
			t.Errorf("tenant %q: serve ok/drop/ran %d/%d/%d vs sim %d/%d/%d", tenant,
				tc.OK, tc.Dropped, tc.TasksRun, st.OK, st.Dropped, st.TasksRun)
		}
	}
	if len(sv.Tenants) != len(sm.Tenants) {
		t.Errorf("tenant sets disagree: serve %d vs sim %d", len(sv.Tenants), len(sm.Tenants))
	}
	if sv.Batches != sm.Batches {
		t.Errorf("batch counts disagree: serve %d vs sim %d", sv.Batches, sm.Batches)
	}
	return sv, sm
}

// TestReplayServeMatchesSimOutcomes: with no admission pressure, the
// serve pipeline's queued-deadline drops agree with the sim replay's
// model of them — same per-tenant 200/504 split, same batch count.
func TestReplayServeMatchesSimOutcomes(t *testing.T) {
	spec := testSpec()
	// Heavy batch jobs keep the server busy for tens of milliseconds at
	// a time; interactive jobs that arrive behind one wait past their
	// 5–15 ms deadlines, so a deterministic subset drops.
	spec.Cohorts[0].DeadlineMeanS = 0.01
	spec.Cohorts[0].DeadlineStddevS = 0.005
	spec.Cohorts[1].Mix[0].MeanWorkS = 10e-3
	spec.Cohorts[1].Mix[0].StddevWorkS = 5e-3
	tr := mustGenerate(t, spec)

	sv, _ := replayBoth(t, tr, 64)
	drops := 0
	for _, tc := range sv.Tenants {
		drops += int(tc.Dropped)
	}
	if drops == 0 {
		t.Error("expected some deadline drops behind busy batches")
	}
}

// TestReplayFollowsLiveBatching pins the replay's batching rule with
// hand-worked numbers: 2 workers, MaxBatch 4, times in seconds chosen
// to be exact in binary so every instant is exact in nanoseconds.
//
//	0      a×2 (0.5)  idle arrival, batch 1; busy until 0 + 1.0/2 = 0.5
//	0.125  b×1 (0.25) waits
//	0.25   a×1 (0.25) waits; deadline 250 ms lands on 0.5 exactly: kept
//	0.5    batch 2 = {b, a}; busy until 0.5 + 0.5/2 = 0.75
//	0.5625 c×1 (0.125) deadline 125 ms → 0.6875, passed at 0.75: 504
//	0.625  b×3 (0.125) waits
//	0.6875 a×2 (0.125) waits
//	0.75   c dropped; batch 3 = {b×3}; a×2 would make 5 > 4: batch 4;
//	       busy until 0.75 + 0.625/2 = 1.0625
//	1.5    c×1 and b×2 (0.25) arrive together at an idle server: batch 5
func TestReplayFollowsLiveBatching(t *testing.T) {
	ev := func(off float64, tenant string, count int, hint float64, deadlineMS int64) Event {
		return Event{OffsetS: off, Tenant: tenant, Class: "sha1", SizeBytes: 256,
			Count: count, Seed: 1, WorkHintS: hint, DeadlineMS: deadlineMS}
	}
	tr := &Trace{SchemaVersion: SchemaVersion, Name: "rule", DurationS: 2, Events: []Event{
		ev(0, "a", 2, 0.5, 0),
		ev(0.125, "b", 1, 0.25, 0),
		ev(0.25, "a", 1, 0.25, 250),
		ev(0.5625, "c", 1, 0.125, 125),
		ev(0.625, "b", 3, 0.125, 0),
		ev(0.6875, "a", 2, 0.125, 0),
		ev(1.5, "c", 1, 0.25, 0),
		ev(1.5, "b", 2, 0.25, 0),
	}}
	want := map[string]TenantCounts{
		"a": {OK: 3, TasksRun: 5},
		"b": {OK: 3, TasksRun: 6},
		"c": {OK: 1, Dropped: 1, TasksRun: 1},
	}
	sv, sm := replayBoth(t, tr, 4)
	for _, lg := range []*Log{sv, sm} {
		if lg.Batches != 5 {
			t.Errorf("%s: %d batches, want 5", lg.Engine, lg.Batches)
		}
		for tenant, w := range want {
			if got := lg.Tenants[tenant]; got == nil || *got != w {
				t.Errorf("%s: tenant %q = %+v, want %+v", lg.Engine, tenant, got, w)
			}
		}
	}
}

// TestGoldenTrace pins the generated bytes of the golden fixture: the
// trace schema, the generators and the RNG streams cannot drift
// without an explicit fixture update.
func TestGoldenTrace(t *testing.T) {
	tr := mustGenerate(t, GoldenSpec())
	got := encode(t, tr)
	path := filepath.Join("testdata", "golden.json")
	if os.Getenv("EEWA_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("regenerated %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden fixture missing (regenerate with EEWA_REGEN_GOLDEN=1 go test ./internal/traffic -run TestGoldenTrace): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("generated golden trace diverged from %s; if the change is intended, regenerate the fixture", path)
	}
}

func TestCaptureRecordsSubmissions(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{
		Workers: 2, Machine: machine.Generic(2), Policy: "eewa", Seed: 7, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	cap := NewCapture(srv.Handler())

	tr := mustGenerate(t, testSpec())
	small := &Trace{SchemaVersion: SchemaVersion, Name: "small", DurationS: tr.DurationS}
	for _, ev := range tr.Events {
		ev.DeadlineMS = 0 // keep wall replay outcome-independent
		small.Events = append(small.Events, ev)
		if len(small.Events) == 12 {
			break
		}
	}
	st, err := ReplayWall(t.Context(), cap, small, 100 /* compress 3s to 30ms */, 1)
	if err != nil {
		t.Fatal(err)
	}
	conserved := func(batch int, st *WallStats) {
		t.Helper()
		if got := st.OK + st.Rejected + st.Dropped + st.Other; st.Submitted != 12 || got != 12 || st.Other != 0 {
			t.Fatalf("batch %d: submitted %d, resolved %d (%+v), want 12 each and no other", batch, st.Submitted, got, *st)
		}
	}
	conserved(1, st)
	if cap.Len() != 12 {
		t.Fatalf("captured %d events, want 12", cap.Len())
	}
	rec := cap.Trace("captured")
	if err := rec.Validate(); err != nil {
		t.Fatalf("captured trace invalid: %v", err)
	}
	// The capture must preserve each event's identity (class, count,
	// tenant multiset) even though offsets are re-measured.
	count := func(evs []Event) map[string]int {
		m := map[string]int{}
		for _, ev := range evs {
			m[fmt.Sprintf("%s/%s/%d", ev.Tenant, ev.Class, ev.Count)]++
		}
		return m
	}
	if !reflect.DeepEqual(count(small.Events), count(rec.Events)) {
		t.Errorf("captured identity multiset differs:\n%v\nvs\n%v",
			count(small.Events), count(rec.Events))
	}
	// The same events in groups of 4 go to /v1/jobs:batch: one event
	// per job, the same identities again.
	st4, err := ReplayWall(t.Context(), cap, small, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	conserved(4, st4)
	if cap.Len() != 24 {
		t.Fatalf("captured %d events after grouped posts, want 24", cap.Len())
	}
	if grouped := cap.Trace("captured").Events; !reflect.DeepEqual(count(append(small.Events, small.Events...)), count(grouped)) {
		t.Errorf("batch posts captured identities %v, want each of %v twice", count(grouped), count(small.Events))
	}
	drain := func() {
		ctx := t.Context()
		if err := srv.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	drain()
}

// A batch submission is one arrival per job: each well-formed job of a
// POST /v1/jobs:batch body becomes an event, and the wrapped handler
// still reads the whole body.
func TestCaptureRecordsEachJobOfABatch(t *testing.T) {
	body, err := json.Marshal(serve.BatchRequest{Jobs: []serve.JobRequest{
		{Tenant: "a", Func: "sha1", Count: 2, SizeBytes: 256, Seed: 1},
		{Tenant: "b", Func: "lzw", SizeBytes: 512, Seed: 2, DeadlineMS: 50},
		{Tenant: "a", Func: "md5", Count: 3, Seed: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	cap := NewCapture(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
	}))
	cap.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/jobs:batch", bytes.NewReader(body)))
	if cap.Len() != 3 {
		t.Fatalf("captured %d events from a 3-job batch, want 3", cap.Len())
	}
	if !bytes.Equal(got, body) {
		t.Errorf("the wrapped handler read %q, want the request body", got)
	}
	// Submission order: a replay groups and orders the batch's jobs as
	// the live request did.
	want := []Event{
		{Tenant: "a", Class: "sha1", Count: 2, SizeBytes: 256, Seed: 1},
		{Tenant: "b", Class: "lzw", Count: 1, SizeBytes: 512, Seed: 2, DeadlineMS: 50},
		{Tenant: "a", Class: "md5", Count: 3, Seed: 3},
	}
	if evs := cap.Trace("batch").Events; !reflect.DeepEqual(evs, want) {
		t.Errorf("captured %+v, want %+v", evs, want)
	}
}

// Concurrent first requests race for the capture's start: whichever
// records first anchors it, so no event lands before offset 0 and the
// trace validates with offsets that never decrease.
func TestCaptureConcurrentSubmissionsStayOrdered(t *testing.T) {
	body, err := json.Marshal(serve.JobRequest{Tenant: "t", Func: "sha1", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const posters, each = 8, 25
	for round := 0; round < 20; round++ {
		cap := NewCapture(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
		var wg sync.WaitGroup
		for range posters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range each {
					cap.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
				}
			}()
		}
		wg.Wait()
		tr := cap.Trace("concurrent")
		if len(tr.Events) != posters*each {
			t.Fatalf("round %d: captured %d events, want %d", round, len(tr.Events), posters*each)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// ReplaySim hands the simulator each batch in the order the live
// batcher runs it: heaviest work hint first. One batch of jobs with
// rising hints must model exactly like sched.Run on that batch sorted
// by hint, bit for bit.
func TestReplaySimRunsBatchInLiveOrder(t *testing.T) {
	jobs := []struct {
		class string
		count int
		hint  float64
	}{{"a", 3, 100e-6}, {"b", 2, 200e-6}, {"c", 3, 400e-6}, {"d", 2, 800e-6}}
	tr := &Trace{SchemaVersion: SchemaVersion, Name: "rising", DurationS: 1}
	for _, j := range jobs {
		tr.Events = append(tr.Events, Event{Tenant: "t", Class: j.class, Count: j.count, Seed: 1, WorkHintS: j.hint})
	}
	const cores = 4
	lg, _, err := ReplaySim(tr, SimReplay{Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	if lg.Batches != 1 {
		t.Fatalf("%d batches, want 1", lg.Batches)
	}

	var b task.Batch
	for k := len(jobs) - 1; k >= 0; k-- {
		for range jobs[k].count {
			b.Tasks = append(b.Tasks, task.Task{Class: jobs[k].class, Work: jobs[k].hint})
		}
	}
	cfg := machine.Generic(cores)
	pol, err := policy.New(policy.IDEEWA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := sched.Params{}
	params.Seed = 1
	want, err := sched.Run(cfg, &task.Workload{Name: "trace:" + tr.Name, Batches: []task.Batch{b}}, pol, params)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(lg.EnergyJ) != math.Float64bits(want.Energy) ||
		math.Float64bits(lg.MakespanS) != math.Float64bits(want.Makespan) {
		t.Errorf("replay energy %v J, makespan %v s; sched.Run on the hint-sorted batch %v J, %v s",
			lg.EnergyJ, lg.MakespanS, want.Energy, want.Makespan)
	}
}
