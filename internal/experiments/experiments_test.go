package experiments

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// Experiments are slow-ish (full benchmark runs); share results across
// assertions within each test.

func TestFig1Arithmetic(t *testing.T) {
	s := Fig1(1.0)
	if len(s) != 4 {
		t.Fatalf("got %d schedules, want 4", len(s))
	}
	a, b, c, d := s[0], s[1], s[2], s[3]
	// (a) and (b) finish at 2t; (c) and (d) at 4t.
	if a.Time != 2 || b.Time != 2 {
		t.Errorf("(a)=%g (b)=%g, want both 2t", a.Time, b.Time)
	}
	if c.Time != 4 || d.Time != 4 {
		t.Errorf("(c)=%g (d)=%g, want both 4t", c.Time, d.Time)
	}
	// (b) saves energy versus (a) at identical time — the optimum EEWA
	// targets.
	if !(b.Energy < a.Energy) {
		t.Errorf("(b) %.1fJ should undercut (a) %.1fJ", b.Energy, a.Energy)
	}
	// (c) wastes more energy than (b) (Fig. 1 discussion: 4t(p0+p1) vs
	// 2t(p0+p1)) and degrades time.
	if !(c.Energy > b.Energy) {
		t.Errorf("(c) %.1fJ should exceed (b) %.1fJ", c.Energy, b.Energy)
	}
	// (c) also exceeds (a): the paper calls it the unfortunate case.
	if !(c.Energy > a.Energy) {
		t.Errorf("(c) %.1fJ should exceed (a) %.1fJ", c.Energy, a.Energy)
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 6 sweep in -short mode")
	}
	recs, err := Fig6([]uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := byBenchmark(recs)
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7 benchmarks", len(rows))
	}
	var minSave, maxSave float64 = 1, 0
	for _, row := range rows {
		if len(row) != 3 {
			t.Fatalf("%s: %d policies, want Cilk, Cilk-D, EEWA", row[0].Benchmark, len(row))
		}
		cilk, cilkD, eewa := row[0], row[1], row[2]
		if cilk.Policy != "cilk" || cilkD.Policy != "cilk-d" || eewa.Policy != "eewa" {
			t.Fatalf("%s: policies %s, %s, %s, want cilk, cilk-d, eewa", cilk.Benchmark, cilk.Policy, cilkD.Policy, eewa.Policy)
		}
		if cilk.NormTime != 1 || cilk.NormEnergy != 1 {
			t.Errorf("%s: Cilk must normalize to 1", cilk.Benchmark)
		}
		// Orderings: EEWA ≤ Cilk-D ≤ Cilk in energy (small tolerance for
		// seeds where the adjuster finds nothing and EEWA ≈ Cilk-D).
		if eewa.NormEnergy > cilkD.NormEnergy+0.01 {
			t.Errorf("%s: EEWA energy %.3f above Cilk-D %.3f", eewa.Benchmark, eewa.NormEnergy, cilkD.NormEnergy)
		}
		if cilkD.NormEnergy >= 1 {
			t.Errorf("%s: Cilk-D should save energy, got %.3f", cilkD.Benchmark, cilkD.NormEnergy)
		}
		// Performance: EEWA within ±13%% of Cilk (the paper sees
		// +0.8–3.7%%; our deterministic placement can also run faster).
		if eewa.NormTime < 0.85 || eewa.NormTime > 1.06 {
			t.Errorf("%s: EEWA normalized time %.3f outside [0.85, 1.06]", eewa.Benchmark, eewa.NormTime)
		}
		save := 1 - eewa.NormEnergy
		if save < minSave {
			minSave = save
		}
		if save > maxSave {
			maxSave = save
		}
	}
	// Paper band: 8.7–29.8 %. Our model spans a comparable band.
	if minSave < 0.05 {
		t.Errorf("weakest EEWA saving %.1f%%, want ≥ 5%%", 100*minSave)
	}
	if maxSave < 0.25 || maxSave > 0.45 {
		t.Errorf("strongest EEWA saving %.1f%%, want within [25%%, 45%%]", 100*maxSave)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 7 sweep in -short mode")
	}
	rows, err := Fig7(machine.Opteron16(), []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	anyBigGap := false
	for _, r := range rows {
		if len(r.Levels) != 16 {
			t.Errorf("%s: %d levels, want 16", r.Benchmark, len(r.Levels))
		}
		if r.RelTime["EEWA"] != 1 {
			t.Errorf("%s: EEWA must normalize to 1", r.Benchmark)
		}
		// Cilk must never beat WATS on the asymmetric machine by any
		// meaningful margin, and must trail EEWA.
		if r.RelTime["Cilk"] < 0.99 {
			t.Errorf("%s: random stealing at %.2f× EEWA — too fast for an oblivious scheduler", r.Benchmark, r.RelTime["Cilk"])
		}
		if r.RelTime["WATS"] > r.RelTime["Cilk"]+0.15 {
			t.Errorf("%s: WATS %.2f much slower than Cilk %.2f", r.Benchmark, r.RelTime["WATS"], r.RelTime["Cilk"])
		}
		if r.RelTime["Cilk"] > 1.5 {
			anyBigGap = true
		}
	}
	if !anyBigGap {
		t.Error("paper: Cilk reaches 2.92× EEWA on some benchmark; expected ≥ 1.5× somewhere")
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8(machine.Opteron16(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Census) != 10 {
		t.Fatalf("%d batches, want 10", len(res.Census))
	}
	// Batch 1: every core at the highest frequency.
	if res.Census[0][0] != 16 {
		t.Errorf("batch 1 census %v, want all 16 at F0", res.Census[0])
	}
	// Paper: from batch 3 on, 5 cores at 2.5 GHz, 11 at 0.8 GHz; and in
	// most batches more than half the cores sit at the lowest level.
	for bi := 2; bi < 10; bi++ {
		c := res.Census[bi]
		if c[0] != 5 || c[3] != 11 {
			t.Errorf("batch %d census %v, want [5 0 0 11] (Fig. 8)", bi+1, c)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 9 sweep in -short mode")
	}
	points, err := Fig9([]uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 12 {
		t.Fatalf("got %d points, want 12 (4 sizes × 3 policies)", len(points))
	}
	get := func(cores int, policy string) sweep.Record {
		for _, p := range points {
			if p.Cores == cores && p.Policy == policy {
				return p
			}
		}
		t.Fatalf("missing point %d/%s", cores, policy)
		return sweep.Record{}
	}
	// 4 cores: no meaningful saving, tiny degradation (paper: 0.3%).
	e4 := get(4, "eewa")
	if e4.NormEnergy < 0.97 {
		t.Errorf("4-core EEWA energy %.3f — should have almost no headroom", e4.NormEnergy)
	}
	if e4.NormTime > 1.02 {
		t.Errorf("4-core EEWA time %.3f, want ≤ 1.02 (paper: +0.3%%)", e4.NormTime)
	}
	// Savings grow with the core count.
	e8, e12, e16 := get(8, "eewa"), get(12, "eewa"), get(16, "eewa")
	if !(e16.NormEnergy < e12.NormEnergy && e12.NormEnergy < e8.NormEnergy && e8.NormEnergy < e4.NormEnergy) {
		t.Errorf("EEWA savings must grow with cores: %.3f %.3f %.3f %.3f",
			e4.NormEnergy, e8.NormEnergy, e12.NormEnergy, e16.NormEnergy)
	}
	// Makespans shrink as cores grow (same workload).
	if !(get(16, "cilk").Makespan < get(8, "cilk").Makespan && get(8, "cilk").Makespan < get(4, "cilk").Makespan) {
		t.Error("Cilk makespan should shrink with more cores")
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3(machine.Opteron16(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	for _, r := range rows {
		if r.Percent <= 0 || r.Percent >= 2.0 {
			t.Errorf("%s: overhead %.2f%%, paper requires < 2%%", r.Benchmark, r.Percent)
		}
		if r.HostOverhead <= 0 {
			t.Errorf("%s: host overhead not measured", r.Benchmark)
		}
		if r.SimOverhead >= r.ExecTime {
			t.Errorf("%s: overhead exceeds runtime", r.Benchmark)
		}
	}
}

func TestModalLevels(t *testing.T) {
	censuses := [][]int{
		{16, 0, 0, 0}, // warmup, skipped
		{5, 0, 0, 11},
		{5, 0, 0, 11},
		{4, 1, 0, 11},
	}
	levels := ModalLevels(censuses)
	if len(levels) != 16 {
		t.Fatalf("got %d levels, want 16", len(levels))
	}
	fast, slow := 0, 0
	for _, l := range levels {
		switch l {
		case 0:
			fast++
		case 3:
			slow++
		default:
			t.Errorf("unexpected level %d", l)
		}
	}
	if fast != 5 || slow != 11 {
		t.Errorf("modal config %d fast / %d slow, want 5/11", fast, slow)
	}
}

func TestModalLevelsSingleCensus(t *testing.T) {
	levels := ModalLevels([][]int{{2, 0, 0, 2}})
	if len(levels) != 4 {
		t.Fatalf("got %d levels, want 4", len(levels))
	}
}

func TestRenderers(t *testing.T) {
	// Smoke tests: every renderer produces non-empty output containing
	// its table title.
	if out := RenderFig1(Fig1(1)); !strings.Contains(out, "Fig. 1") {
		t.Error("RenderFig1 missing title")
	}
	res, err := Fig8(machine.Opteron16(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderFig8(res); !strings.Contains(out, "SHA-1") {
		t.Error("RenderFig8 missing title")
	}
	rows, err := Table3(machine.Opteron16(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTable3(rows); !strings.Contains(out, "Table III") {
		t.Error("RenderTable3 missing title")
	}
}

// byPolicy indexes records by benchmark, then policy.
func byPolicy(recs []sweep.Record) map[string]map[string]sweep.Record {
	out := map[string]map[string]sweep.Record{}
	for _, r := range recs {
		if out[r.Benchmark] == nil {
			out[r.Benchmark] = map[string]sweep.Record{}
		}
		out[r.Benchmark][r.Policy] = r
	}
	return out
}

func TestAblationGranularityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep in -short mode")
	}
	recs, err := AblationGranularity([]uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	// The divisible-load formula must never beat the granularity-aware
	// one on makespan by more than noise, and on sha1 (the chunkiest
	// mix) it must be dramatically slower.
	for bench, r := range byPolicy(recs) {
		granular, divisible := r["eewa"].Makespan, r["eewa-divisible"].Makespan
		if bench == "sha1" && divisible < 1.5*granular {
			t.Errorf("sha1: divisible CC %.3fs vs granular %.3fs — expected a large overrun", divisible, granular)
		}
		if granular > divisible*1.05 {
			t.Errorf("%s: granular CC slower (%.3f vs %.3f)", bench, granular, divisible)
		}
	}
}

func TestMemBoundExtensionShape(t *testing.T) {
	recs, err := MemBound([]uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	r := byPolicy(recs)["membound"]
	cilk, fallback, memAware := r["cilk"], r["eewa"], r["eewa-memaware"]
	fbSave := 1 - fallback.Energy/cilk.Energy
	maSave := 1 - memAware.Energy/cilk.Energy
	if fbSave <= 0 {
		t.Errorf("fallback saving %.1f%%, want > 0 (idle down-clocking)", 100*fbSave)
	}
	if maSave < fbSave+0.10 {
		t.Errorf("MemAware saving %.1f%% should exceed fallback %.1f%% by ≥ 10 pts", 100*maSave, 100*fbSave)
	}
	if memAware.Makespan > 1.05*cilk.Makespan {
		t.Errorf("MemAware makespan %.4f degrades > 5%% vs Cilk %.4f", memAware.Makespan, cilk.Makespan)
	}
	if out := RenderMemBound(recs); !strings.Contains(out, "MemAware") {
		t.Error("renderer missing MemAware row")
	}
}

func TestAblationSearchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep in -short mode")
	}
	recs, err := AblationSearch([]uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	rows := byPolicy(recs)
	if len(rows) != 7 {
		t.Fatalf("got %d benchmarks, want 7", len(rows))
	}
	for bench, r := range rows {
		for _, v := range []string{"eewa", "eewa-exhaustive", "eewa-greedy"} {
			if r[v].Energy <= 0 || r[v].Makespan <= 0 {
				t.Errorf("%s/%s: degenerate result", bench, v)
			}
		}
		// Backtracking's energy stays within 10% of the exhaustive
		// optimum on every benchmark (the paper's "near-optimal" claim).
		if r["eewa"].Energy > 1.10*r["eewa-exhaustive"].Energy {
			t.Errorf("%s: backtracking %.1fJ vs exhaustive %.1fJ — not near-optimal",
				bench, r["eewa"].Energy, r["eewa-exhaustive"].Energy)
		}
	}
	out := RenderAblation("t", recs, []string{"backtracking", "exhaustive", "greedy"})
	if !strings.Contains(out, "backtracking") {
		t.Error("render missing variant")
	}
}

func TestAblationPackagesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep in -short mode")
	}
	recs, err := AblationPackages([]uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 14 {
		t.Fatalf("got %d records, want a coupled and an uncoupled one per benchmark", len(recs))
	}
	for i := 0; i < len(recs); i += 2 {
		coupled, uncoupled := recs[i], recs[i+1]
		// Per-core voltage planes can only help EEWA (its groups are
		// already package-aligned; uncoupling removes residual penalty).
		if uncoupled.Energy > 1.01*coupled.Energy {
			t.Errorf("%s: uncoupled %.1fJ worse than coupled %.1fJ", coupled.Benchmark, uncoupled.Energy, coupled.Energy)
		}
	}
}

func TestRenderFig6Fig7Fig9(t *testing.T) {
	if testing.Short() {
		t.Skip("render sweep in -short mode")
	}
	rows6, err := Fig6([]uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderFig6(rows6); !strings.Contains(out, "Fig. 6") || !strings.Contains(out, "sha1") {
		t.Error("RenderFig6 incomplete")
	}
	rows7, err := Fig7(machine.Opteron16(), []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderFig7(rows7); !strings.Contains(out, "Fig. 7") || !strings.Contains(out, "@F") {
		t.Error("RenderFig7 incomplete")
	}
	p9, err := Fig9([]uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderFig9(p9); !strings.Contains(out, "Fig. 9") {
		t.Error("RenderFig9 incomplete")
	}
}

func TestRenderCharts(t *testing.T) {
	rows := []sweep.Record{
		{Benchmark: "x", Policy: "cilk", NormTime: 1, NormEnergy: 1},
		{Benchmark: "x", Policy: "cilk-d", NormTime: 1, NormEnergy: 0.9},
		{Benchmark: "x", Policy: "eewa", NormTime: 0.95, NormEnergy: 0.7},
	}
	out := RenderFig6Chart(rows)
	if !strings.Contains(out, "EEWA") || !strings.Contains(out, "#") {
		t.Errorf("chart output:\n%s", out)
	}
	points := []sweep.Record{{Cores: 4, Policy: "eewa", NormEnergy: 0.5}}
	out9 := RenderFig9Chart(points)
	if !strings.Contains(out9, "4 cores") {
		t.Errorf("fig9 chart output:\n%s", out9)
	}
	// Bars clamp at both ends.
	if got := bar(-1, 1, 10, '#'); got != "" {
		t.Errorf("negative bar = %q", got)
	}
	if got := bar(5, 1, 10, '#'); len(got) != 10 {
		t.Errorf("overflow bar = %q", got)
	}
}

// TestObserveRecordsFigures pins what `eewa-bench -metrics-out` records:
// with Observe installed, every simulation Fig. 6 and Fig. 9 run feeds
// the registry, so the task counter equals the tasks of every cell's
// workload and the run counter the number of cells.
func TestObserveRecordsFigures(t *testing.T) {
	reg := obs.NewRegistry()
	Observe(reg)
	t.Cleanup(func() { Observe(nil) })
	seeds := []uint64{1, 2}
	if _, err := Fig6(seeds); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig9(seeds); err != nil {
		t.Fatal(err)
	}

	const policies = 3 // Cilk, Cilk-D, EEWA
	dmc, err := workloads.ByName("dmc")
	if err != nil {
		t.Fatal(err)
	}
	wantTasks, wantRuns := 0, 0
	for _, seed := range seeds {
		for _, b := range workloads.All() { // Fig. 6: every benchmark at 16 cores
			wantTasks += policies * b.Workload(seed).TotalTasks()
			wantRuns += policies
		}
		wantTasks += 4 * policies * dmc.Workload(seed).TotalTasks() // Fig. 9: 4, 8, 12, 16 cores
		wantRuns += 4 * policies
	}
	for _, c := range []struct {
		name string
		want int
	}{{"eewa_sim_tasks_total", wantTasks}, {"eewa_sim_runs_total", wantRuns}} {
		ctr, ok := reg.At(c.name).(*obs.Counter)
		if !ok {
			t.Fatalf("%s not registered", c.name)
		}
		if got := ctr.Value(); got != float64(c.want) {
			t.Errorf("%s = %g, want %d", c.name, got, c.want)
		}
	}
}
