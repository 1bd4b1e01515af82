package profile

import (
	"reflect"
	"testing"
)

// observed is everything a caller can ask a profiler about its classes.
type observed struct {
	Classes    []Class
	NumClasses int
	Lookups    map[string]Class
	Snapshot   *Snapshot
}

func observe(p *Profiler, names ...string) observed {
	o := observed{
		Classes:    append([]Class{}, p.Classes()...),
		NumClasses: p.NumClasses(),
		Lookups:    map[string]Class{},
		Snapshot:   p.Snapshot(2.5),
	}
	for _, n := range names {
		if c, ok := p.Lookup(n); ok {
			o.Lookups[n] = c
		}
	}
	return o
}

// TestResetThenSubsetEqualsFresh: Reset keeps the profiler's map and
// class records, so a batch that records only a subset of the classes
// the previous batch saw must look exactly like the same batch on a
// fresh profiler — the records of classes not seen since the Reset are
// invisible, and first-seen order is this batch's, not the last one's.
func TestResetThenSubsetEqualsFresh(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	second := func(p *Profiler) {
		// d before b, with equal average work: the tie-break must be
		// this batch's first-seen order (d, b), not the previous (b, d).
		p.Record("d", 0.25, 0, 0)
		p.RecordBulk("b", 2, 0.5, 0.25, 0)
	}
	reused := New(ladder)
	for i, n := range names {
		reused.Record(n, float64(i+1), 1, 0)
		reused.Record(n, float64(i+1), 0, 0)
	}
	if got := reused.NumClasses(); got != 4 {
		t.Fatalf("NumClasses %d before Reset, want 4", got)
	}
	reused.Reset()
	if o := observe(reused, names...); o.NumClasses != 0 || len(o.Classes) != 0 || len(o.Lookups) != 0 || len(o.Snapshot.Classes) != 0 {
		t.Errorf("after Reset the profiler still shows %+v", o)
	}
	second(reused)

	fresh := New(ladder)
	second(fresh)
	if got, want := observe(reused, names...), observe(fresh, names...); !reflect.DeepEqual(got, want) {
		t.Errorf("after Reset and a subset batch:\n%+v\nfresh profiler:\n%+v", got, want)
	}
	if got := reused.Classes(); len(got) != 2 || got[0].Name != "d" || got[1].Name != "b" {
		t.Errorf("Classes() = %+v, want d then b (this batch's first-seen order)", got)
	}
}

// TestClassRefSurvivesReset: a ref taken before a Reset re-resolves on
// its next Record and the class rejoins the batch — once, however many
// times the ref records — while refs not used since stay invisible.
func TestClassRefSurvivesReset(t *testing.T) {
	p := New(ladder)
	ra, rb := p.Ref("a"), p.Ref("b")
	ra.Record(1, 0, 0)
	rb.Record(2, 0, 0)
	p.Reset()
	rb.Record(4, 0, 0)
	rb.Record(6, 0, 0)
	if got := p.Classes(); len(got) != 1 || got[0] != (Class{Name: "b", Count: 2, AvgWork: 5, MaxWork: 6}) {
		t.Errorf("Classes() = %+v, want only b with the two records since the Reset", got)
	}
	if _, ok := p.Lookup("a"); ok || p.NumClasses() != 1 {
		t.Errorf("a is visible (%v) or NumClasses = %d, want invisible and 1", ok, p.NumClasses())
	}
	p.Reset()
	ra.Record(3, 0, 0)
	p.Record("b", 1, 0, 0)
	if got := p.Classes(); len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" || got[1].Count != 1 {
		t.Errorf("Classes() = %+v, want a then b, each from this batch alone", got)
	}
}

// TestRawObservationsAccumulateAcrossResets: the memory-bound model fits
// on raw per-level times from different batches, so they survive Reset —
// also for a class the batches in between did not see.
func TestRawObservationsAccumulateAcrossResets(t *testing.T) {
	p := New(ladder)
	p.Record("a", 1.0, 0, 0)
	p.Reset()
	p.Record("b", 9.0, 1, 0)
	p.Reset()
	p.Record("a", 3.0, 0, 0)
	p.Record("a", 5.0, 2, 0)
	if avg, ok := p.RawAvg("a", 0); !ok || avg != 2.0 {
		t.Errorf("RawAvg(a, 0) = %v, %v; want 2 over both batches", avg, ok)
	}
	if got := p.RawLevels("a"); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("RawLevels(a) = %v, want [0 2]", got)
	}
	if avg, ok := p.RawAvg("b", 1); !ok || avg != 9.0 {
		t.Errorf("RawAvg(b, 1) = %v, %v; want the sample from the batch before last", avg, ok)
	}
}

// TestClassesIsTheProfilersSlice pins the contract Classes documents:
// the slice is overwritten by the next call, and Snapshot copies.
func TestClassesIsTheProfilersSlice(t *testing.T) {
	p := New(ladder)
	p.Record("a", 1, 0, 0)
	snap := p.Snapshot(1)
	p.Reset()
	p.Record("z", 7, 0, 0)
	if got := p.Classes(); len(got) != 1 || got[0].Name != "z" {
		t.Fatalf("Classes() = %+v, want z", got)
	}
	if snap.Classes[0].Name != "a" {
		t.Errorf("snapshot taken before the Reset now reads %+v", snap.Classes)
	}
	if got := testing.AllocsPerRun(50, func() { _ = p.Classes(); p.Reset(); p.Record("z", 7, 0, 0) }); got != 0 {
		t.Errorf("%.1f allocations per warm Record/Classes/Reset cycle, want 0", got)
	}
}
