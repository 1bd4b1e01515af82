package check

import (
	"strings"
	"testing"

	"repro/internal/cgroup"
)

func TestTaskConservation(t *testing.T) {
	if vs := TaskConservation([]int32{1, 1, 1}); len(vs) != 0 {
		t.Errorf("clean counts flagged: %v", vs)
	}
	vs := TaskConservation([]int32{1, 0, 2})
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	for _, v := range vs {
		if v.Invariant != "task-conservation" {
			t.Errorf("invariant = %q", v.Invariant)
		}
	}
}

func TestEnergyIdentity(t *testing.T) {
	// Exact decomposition: clean.
	if vs := EnergyIdentity(0, 10, 4, 3, 2, 1, 0, 1e-6); len(vs) != 0 {
		t.Errorf("exact identity flagged: %v", vs)
	}
	// Residual-balanced clipping: identity holds, residual flagged.
	vs := EnergyIdentity(1, 10, 8, 3, 2, 0, 3, 1e-6)
	if len(vs) != 1 || vs[0].Invariant != "energy-residual" {
		t.Errorf("clipped accounting: got %v, want one energy-residual", vs)
	}
	// Leaked wall time: identity broken.
	vs = EnergyIdentity(2, 10, 4, 3, 0, 1, 0, 1e-6)
	if len(vs) != 1 || vs[0].Invariant != "energy-identity" {
		t.Errorf("leaky accounting: got %v, want one energy-identity", vs)
	}
}

func TestSpanIdentity(t *testing.T) {
	// The four spans cover the job's life: clean.
	if vs := SpanIdentity(7, 1e-3, 2e-4, 9e-4, 3e-4, 2.4e-3, 1e-6); len(vs) != 0 {
		t.Errorf("closed account flagged: %v", vs)
	}
	// The stretch after the last payload belongs to no span.
	vs := SpanIdentity(7, 1e-3, 2e-4, 9e-4, 0, 2.4e-3, 1e-6)
	if len(vs) != 1 || vs[0].Invariant != "span-identity" {
		t.Errorf("open account: got %v, want one span-identity", vs)
	}
}

func TestPlanFeasible(t *testing.T) {
	if vs := PlanFeasible(nil, 4, 3); len(vs) != 1 {
		t.Errorf("nil assignment: %v", vs)
	}
	asn, err := cgroup.FromLevels(make([]int, 4), 3)
	if err != nil {
		t.Fatal(err)
	}
	if vs := PlanFeasible(asn, 4, 3); len(vs) != 0 {
		t.Errorf("all-fast flagged: %v", vs)
	}
	// Wrong machine size: structural failure.
	if vs := PlanFeasible(asn, 5, 3); len(vs) == 0 {
		t.Error("4-core assignment accepted for 5-core machine")
	}
	// Non-monotone tuple smuggled into a structurally valid assignment.
	asn.Tuple = []int{2, 1}
	vs := PlanFeasible(asn, 4, 3)
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "monotone") {
		t.Errorf("non-monotone tuple: %v", vs)
	}
}
