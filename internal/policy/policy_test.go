package policy

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cctable"
	"repro/internal/cgroup"
	"repro/internal/machine"
	"repro/internal/memmodel"
	"repro/internal/profile"
	"repro/internal/xrand"
)

// TestNewConstructsEveryCanonicalPolicy walks New's name table: every
// accepted name builds, its Name is its display label, the four IDs
// build the same types as their constructors, each EEWA variant
// configures exactly its one decision, and an unknown name's error
// lists every accepted name.
func TestNewConstructsEveryCanonicalPolicy(t *testing.T) {
	cfg := machine.Opteron16()
	cases := []struct {
		id, name string
		want     Policy // the policy New must build, variant fields set
	}{
		{IDCilk, "Cilk", NewCilk()},
		{IDCilkD, "Cilk-D", NewCilkD(len(cfg.Freqs))},
		{IDWATS, "WATS", &WATS{}},
		{IDEEWA, "EEWA", NewEEWA()},
		{"eewa-exhaustive", "EEWA-exhaustive", &EEWA{variant: "eewa-exhaustive"}},
		{"eewa-greedy", "EEWA-greedy", &EEWA{variant: "eewa-greedy"}},
		{"eewa-divisible", "EEWA-divisible", &EEWA{variant: "eewa-divisible", divisibleCC: true}},
		{"eewa-memaware", "EEWA-memaware", &EEWA{variant: "eewa-memaware", memAware: true}},
		{"eewa-ignore", "EEWA-ignore", &EEWA{variant: "eewa-ignore", ignoreMemoryBound: true}},
	}
	if want := []string{IDCilk, IDCilkD, IDWATS, IDEEWA}; !reflect.DeepEqual(IDs(), want) {
		t.Fatalf("IDs() = %v, want %v", IDs(), want)
	}
	if len(names) != len(cases) {
		t.Fatalf("New accepts %d names %v, the table has %d", len(names), names, len(cases))
	}
	for _, c := range cases {
		p, err := New(c.id, cfg)
		if err != nil {
			t.Fatalf("New(%q): %v", c.id, err)
		}
		if p.Name() != c.name {
			t.Errorf("New(%q).Name() = %q, want %q", c.id, p.Name(), c.name)
		}
		if reflect.TypeOf(p) != reflect.TypeOf(c.want) {
			t.Errorf("New(%q) is a %T, want %T", c.id, p, c.want)
			continue
		}
		e, ok := p.(*EEWA)
		if !ok {
			continue
		}
		w := c.want.(*EEWA)
		if e.variant != w.variant || e.divisibleCC != w.divisibleCC || e.memAware != w.memAware || e.ignoreMemoryBound != w.ignoreMemoryBound {
			t.Errorf("New(%q) = %+v, want %+v", c.id, e, w)
		}
		if wantSearch := c.id == "eewa-exhaustive" || c.id == "eewa-greedy"; (e.search != nil) != wantSearch {
			t.Errorf("New(%q): search replaced = %v, want %v", c.id, e.search != nil, wantSearch)
		}
	}
	_, err := New("bogus", cfg)
	if err == nil {
		t.Fatal("New should reject unknown identifiers")
	}
	for _, c := range cases {
		if !strings.Contains(err.Error(), c.id) {
			t.Errorf("unknown-name error %q does not list %q", err, c.id)
		}
	}
}

// TestVariantsPlanWithTheirDecision pins what the search and CC-formula
// variants change. From one offline profile each plan is what its CC
// formula and tuple search give, and the profile separates all four:
// Algorithm 1 slows the light class, the exhaustive optimum keeps both
// classes fast, the divisible-load formula slows both, and the greedy
// pass finds no tuple, so its first batch falls back to all-fast.
func TestVariantsPlanWithTheirDecision(t *testing.T) {
	cfg := machine.Opteron16()
	const T = 0.0712
	classes := []profile.Class{
		{Name: "heavy", Count: 19, AvgWork: 0.0133, MaxWork: 0.01347},
		{Name: "light", Count: 63, AvgWork: 0.00738, MaxWork: 0.00768},
	}
	granular := func() *cctable.Table {
		tab := new(cctable.Table)
		if err := tab.RebuildGranular(classes, cfg.Freqs, T, cfg.Cores); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	cases := []struct {
		id     string
		search func() ([]int, bool)
		want   []int // nil: no tuple fits
	}{
		{IDEEWA, func() ([]int, bool) { return granular().SearchTuple(cfg.Cores) }, []int{0, 1}},
		{"eewa-exhaustive", func() ([]int, bool) { return granular().ExhaustiveSearch(cfg.Cores, cfg.Power) }, []int{0, 0}},
		{"eewa-greedy", func() ([]int, bool) { return granular().GreedySearch(cfg.Cores) }, nil},
		{"eewa-divisible", func() ([]int, bool) {
			tab := new(cctable.Table)
			if err := tab.Rebuild(classes, cfg.Freqs, T); err != nil {
				t.Fatal(err)
			}
			return tab.SearchTuple(cfg.Cores)
		}, []int{1, 1}},
	}
	for _, c := range cases {
		if tuple, ok := c.search(); ok != (c.want != nil) || ok && !reflect.DeepEqual(tuple, c.want) {
			t.Fatalf("%s: the search gives %v (ok %v), the test expects %v", c.id, tuple, ok, c.want)
		}
		p, err := New(c.id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := p.(*EEWA)
		e.Offline = &profile.Snapshot{Freqs: []float64(cfg.Freqs), T: T, Classes: classes}
		plan := p.BeginBatch(0, profile.New(cfg.Freqs), &Env{Cfg: cfg})
		if c.want == nil {
			if e.adj.Infeasible != 1 || !plan.ScatterAll {
				t.Errorf("%s: plan %+v after %d infeasible searches, want the all-fast fallback after one", c.id, plan, e.adj.Infeasible)
			}
		} else if !plan.Adjusted || !reflect.DeepEqual(plan.Assignment.Tuple, c.want) {
			t.Errorf("%s: plan tuple %v, want %v", c.id, plan.Assignment.Tuple, c.want)
		}
	}
}

func TestBaselinePlans(t *testing.T) {
	cfg := machine.Opteron16()
	env := &Env{Cfg: cfg}
	prof := profile.New(cfg.Freqs)
	for _, id := range []string{IDCilk, IDCilkD} {
		p, err := New(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan := p.BeginBatch(0, prof, env)
		if !plan.ScatterAll || !plan.RandomSteal {
			t.Errorf("%s: plan %+v, want classic scatter + random stealing", id, plan)
		}
		for c := 0; c < cfg.Cores; c++ {
			if plan.Assignment.FreqOf(c) != 0 {
				t.Errorf("%s: core %d not at F0", id, c)
			}
		}
	}
	cilk, _ := New(IDCilk, cfg)
	if act := cilk.OutOfWork(3); act.FreqLevel != -1 || act.State != machine.Spinning {
		t.Errorf("Cilk out-of-work %+v, want spin at current level", act)
	}
	cilkd, _ := New(IDCilkD, cfg)
	if act := cilkd.OutOfWork(3); act.FreqLevel != len(cfg.Freqs)-1 {
		t.Errorf("Cilk-D out-of-work %+v, want lowest level", act)
	}

	// The Fig. 7 Cilk: the same stealing on frozen levels, each core
	// spinning at its own.
	levels := DefaultWATSLevels(cfg.Cores, len(cfg.Freqs))
	fixed, err := NewCilkFixed(levels, len(cfg.Freqs))
	if err != nil {
		t.Fatal(err)
	}
	plan := fixed.BeginBatch(1, prof, env)
	if fixed.Name() != "Cilk" || !plan.ScatterAll || !plan.RandomSteal {
		t.Errorf("%s: plan %+v, want classic scatter + random stealing", fixed.Name(), plan)
	}
	for c, l := range levels {
		if plan.Assignment.FreqOf(c) != l {
			t.Errorf("fixed Cilk: core %d at level %d, want the frozen %d", c, plan.Assignment.FreqOf(c), l)
		}
	}
	if act := fixed.OutOfWork(3); act.FreqLevel != -1 {
		t.Errorf("fixed Cilk out-of-work %+v, want spin at the frozen level", act)
	}
	if _, err := NewCilkFixed([]int{0, len(cfg.Freqs)}, len(cfg.Freqs)); err == nil {
		t.Error("a level off the ladder should not build")
	}
}

// allF0 is the all-F0 assignment of an m-core machine, the one Cilk
// plans.
func allF0(t *testing.T, m int) *cgroup.Assignment {
	t.Helper()
	asn, err := cgroup.FromLevels(make([]int, m), 4)
	if err != nil {
		t.Fatal(err)
	}
	return asn
}

func TestDefaultWATSLevels(t *testing.T) {
	levels := DefaultWATSLevels(16, 4)
	fast, slow := 0, 0
	for _, l := range levels {
		switch l {
		case 0:
			fast++
		case 3:
			slow++
		default:
			t.Fatalf("unexpected level %d", l)
		}
	}
	if fast != 6 || slow != 10 {
		t.Errorf("16-core split %d fast / %d slow, want 6/10", fast, slow)
	}
	if got := DefaultWATSLevels(1, 4); len(got) != 1 || got[0] != 0 {
		t.Errorf("1-core config %v, want [0]", got)
	}
}

func TestPlacerScatterRoundRobins(t *testing.T) {
	plan := &Plan{Assignment: allF0(t, 4), ScatterAll: true}
	pl := NewIndexedPlacer(plan, 4, []string{"anything"})
	for i := 0; i < 8; i++ {
		c, g := pl.Place(0)
		if c != i%4 {
			t.Fatalf("task %d placed on core %d, want %d", i, c, i%4)
		}
		if g != 0 {
			t.Fatalf("task %d placed in group %d, want 0", i, g)
		}
	}
}

func TestPlacerByClassUsesPlacementCores(t *testing.T) {
	asn, err := cgroup.FromLevels([]int{0, 0, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	asn.ClassGroup["heavy"] = 0
	asn.ClassGroup["light"] = 1
	plan := &Plan{Assignment: asn}
	const heavy, light, unknown = 0, 1, 2
	pl := NewIndexedPlacer(plan, 4, []string{"heavy", "light", "never-profiled"})

	heavyCores := map[int]bool{}
	for i := 0; i < 4; i++ {
		c, g := pl.Place(heavy)
		if g != 0 {
			t.Fatalf("heavy placed in group %d", g)
		}
		heavyCores[c] = true
	}
	if !reflect.DeepEqual(heavyCores, map[int]bool{0: true, 1: true}) {
		t.Errorf("heavy cores %v, want {0,1}", heavyCores)
	}
	if c, g := pl.Place(light); g != 1 || (c != 2 && c != 3) {
		t.Errorf("light placed on core %d group %d, want group 1 on cores {2,3}", c, g)
	}
	// Unknown classes go to the fastest group — the paper's rule.
	if _, g := pl.Place(unknown); g != 0 {
		t.Errorf("unknown class placed in group %d, want fastest (0)", g)
	}
}

// collectProbes drains the full probe sequence for a worker.
func collectProbes(so *StealOrder, self int, rng *xrand.RNG) [][2]int {
	var seq [][2]int
	w := so.Walker(self, make([]int, len(so.coreGroup)))
	w.ForEachVictim(rng, func(v, g int) bool {
		seq = append(seq, [2]int{v, g})
		return false
	})
	return seq
}

func TestStealOrderRandomCoversEveryRemoteOnce(t *testing.T) {
	plan := &Plan{Assignment: allF0(t, 6), RandomSteal: true}
	so := NewStealOrder(plan)
	seq := collectProbes(so, 2, xrand.New(7))
	if len(seq) != 5 {
		t.Fatalf("%d probes, want 5", len(seq))
	}
	var victims []int
	for _, p := range seq {
		if p[0] == 2 {
			t.Fatal("random order probed self")
		}
		if p[1] != 0 {
			t.Fatalf("probe %v outside own-group pool", p)
		}
		victims = append(victims, p[0])
	}
	sort.Ints(victims)
	if !reflect.DeepEqual(victims, []int{0, 1, 3, 4, 5}) {
		t.Errorf("victims %v, want every remote core once", victims)
	}
}

func TestStealOrderPreferenceIsRobTheWeakerFirst(t *testing.T) {
	// Three groups: G0 fast {0,1}, G1 mid {2,3}, G2 slow {4,5}.
	asn, err := cgroup.FromLevels([]int{0, 0, 1, 1, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Assignment: asn}
	so := NewStealOrder(plan)

	// A mid-group core must probe: own group G1, then weaker G2, then
	// stronger G0 — Fig. 5's preference list — with every core's pool
	// probed within each group phase.
	seq := collectProbes(so, 2, xrand.New(7))
	if len(seq) != 17 { // 5 own-group (skip self) + 6 + 6
		t.Fatalf("%d probes, want 17", len(seq))
	}
	var phases []int
	for _, p := range seq {
		if len(phases) == 0 || phases[len(phases)-1] != p[1] {
			phases = append(phases, p[1])
		}
	}
	if !reflect.DeepEqual(phases, []int{1, 2, 0}) {
		t.Errorf("group phases %v, want [1 2 0] (own, weaker, stronger)", phases)
	}
	for i, p := range seq {
		if i < 5 && p[0] == 2 && p[1] == 1 {
			t.Error("preference order probed the caller's own local pool")
		}
	}
}

func TestStealOrderFindsTask(t *testing.T) {
	plan := &Plan{Assignment: allF0(t, 4), RandomSteal: true}
	so := NewStealOrder(plan)
	hits := 0
	w := so.Walker(0, make([]int, 4))
	found := w.ForEachVictim(xrand.New(1), func(v, g int) bool {
		hits++
		return v == 3 // pretend core 3's pool yields
	})
	if !found {
		t.Error("ForEachVictim should report success")
	}
	if hits == 0 || hits > 3 {
		t.Errorf("%d probes before success, want 1..3", hits)
	}
}

func TestEEWAFirstBatchClassic(t *testing.T) {
	cfg := machine.Opteron16()
	e := NewEEWA()
	plan := e.BeginBatch(0, profile.New(cfg.Freqs), &Env{Cfg: cfg, AdjusterCharge: 2e-3})
	if !plan.ScatterAll || !plan.RandomSteal || plan.Adjusted {
		t.Errorf("first batch plan %+v, want classic unadjusted", plan)
	}
	if act := e.OutOfWork(0); act.FreqLevel != cfg.Freqs.Slowest() {
		t.Errorf("EEWA out-of-work level %d, want slowest", act.FreqLevel)
	}
}

func TestEEWAAdjustsFromProfile(t *testing.T) {
	cfg := machine.Opteron16()
	e := NewEEWA()
	prof := profile.New(cfg.Freqs)
	env := &Env{Cfg: cfg, AdjusterCharge: 2e-3}
	e.BeginBatch(0, prof, env)

	// Profile a skewed batch: few heavy tasks, many light ones.
	for i := 0; i < 8; i++ {
		prof.Ref("heavy").Record(2e-3, 0, 0)
	}
	for i := 0; i < 64; i++ {
		prof.Ref("light").Record(1e-4, 0, 0)
	}
	env.IdealTime = 4e-3
	plan := e.BeginBatch(1, prof, env)
	if !plan.Adjusted {
		t.Fatal("second batch should run the adjuster")
	}
	if plan.Overhead != env.AdjusterCharge {
		t.Errorf("overhead %g, want the adjuster charge %g", plan.Overhead, env.AdjusterCharge)
	}
	if plan.Assignment.U() < 2 {
		t.Errorf("adjuster kept %d group(s) for a skewed profile (tuple %v)",
			plan.Assignment.U(), plan.Assignment.Tuple)
	}
	hg := plan.Assignment.GroupOfClass("heavy")
	lg := plan.Assignment.GroupOfClass("light")
	if plan.Assignment.Groups[hg].Level > plan.Assignment.Groups[lg].Level {
		t.Errorf("heavy class on slower group (level %d) than light (level %d)",
			plan.Assignment.Groups[hg].Level, plan.Assignment.Groups[lg].Level)
	}
}

// servedSnapshot is a 64-task offline profile shaped like a served
// mix (four kernels, sha1 the most frequent, dmc the heaviest) with T
// 1.25 × its work over two workers.
func servedSnapshot(freqs machine.FreqLadder) *profile.Snapshot {
	s := &profile.Snapshot{
		Freqs: []float64(freqs),
		Classes: []profile.Class{
			{Name: "dmc", Count: 4, AvgWork: 1e-3, MaxWork: 1e-3},
			{Name: "je", Count: 4, AvgWork: 180e-6, MaxWork: 180e-6},
			{Name: "sha1", Count: 41, AvgWork: 42e-6, MaxWork: 42e-6},
			{Name: "lzw", Count: 15, AvgWork: 30e-6, MaxWork: 30e-6},
		},
	}
	var work float64
	for _, c := range s.Classes {
		work += c.TotalWork()
	}
	s.T = 1.25 * work / 2
	return s
}

// servedPlan plans the batch after a first one that ran classes (each
// at its snapshot average, at F0) on two workers, under an EEWA that
// holds snap offline, or, when snap is nil, under an online EEWA whose
// first batch took T.
func servedPlan(t *testing.T, snap *profile.Snapshot, T float64, classes []profile.Class) Plan {
	t.Helper()
	cfg := machine.Opteron16()
	cfg.Cores = 2
	e := NewEEWA()
	e.Offline = snap
	prof := profile.New(cfg.Freqs)
	env := &Env{Cfg: cfg}
	e.BeginBatch(0, prof, env)
	for _, c := range classes {
		prof.RecordBulk(c.Name, c.Count, c.TotalWork(), c.MaxWork, 0)
	}
	env.IdealTime = T
	return e.BeginBatch(1, prof, env)
}

func levels(plan Plan) []int {
	out := make([]int, len(plan.Assignment.CoreGroup))
	for w := range out {
		out[w] = plan.Assignment.FreqOf(w)
	}
	return out
}

// A served batch of four sha1 tasks holds 168 µs of the profile's
// 6.9 ms: planned against the whole profile's T (4.3 ms) both workers
// would idle along at the slowest rung for 27× the batch's work, while
// its share of T (105 µs) keeps both at F0.
func TestEEWAOfflineScalesTToTheBatch(t *testing.T) {
	snap := servedSnapshot(machine.Opteron16().Freqs)
	sha1 := snap.Classes[2]
	sha1.Count = 4
	plan := servedPlan(t, snap, 0, []profile.Class{sha1})
	if got := levels(plan); !reflect.DeepEqual(got, []int{0, 0}) {
		t.Errorf("levels %v, want [0 0]", got)
	}
	if want := snap.T * 4 * 42e-6 / (2 * snap.T / 1.25); math.Abs(plan.IdealTime-want) > 1e-12 {
		t.Errorf("planned T %g, want the batch's share of the profile's %g", plan.IdealTime, want)
	}
	// A class the profile lacks counts at its measured work.
	extra := profile.Class{Name: "md5", Count: 2, AvgWork: 50e-6, MaxWork: 50e-6}
	plan = servedPlan(t, snap, 0, []profile.Class{extra, sha1})
	if want := snap.T * (4*42e-6 + 2*50e-6) / (2 * snap.T / 1.25); math.Abs(plan.IdealTime-want) > 1e-12 {
		t.Errorf("planned T %g with an unprofiled class, want %g", plan.IdealTime, want)
	}
}

// A batch that repeats the profiled iteration's counts is planned
// against the profile's T bit for bit, so its plan is the one an
// online EEWA with that T makes.
func TestEEWAOfflineMatchingBatchKeepsT(t *testing.T) {
	snap := servedSnapshot(machine.Opteron16().Freqs)
	// The batch's measured averages differ from the profile's; only its
	// counts decide the share.
	batch := slices.Clone(snap.Classes)
	for i := range batch {
		batch[i].AvgWork *= 0.9
		batch[i].MaxWork = batch[i].AvgWork
	}
	plan := servedPlan(t, snap, 0, batch)
	if math.Float64bits(plan.IdealTime) != math.Float64bits(snap.T) {
		t.Errorf("planned T %v, want the profile's %v bit for bit", plan.IdealTime, snap.T)
	}
	online := servedPlan(t, nil, snap.T, batch)
	if !reflect.DeepEqual(plan.Assignment, online.Assignment) || plan.SearchSteps != online.SearchSteps {
		t.Errorf("plan %+v (%d steps), want the profile-T plan %+v (%d steps)",
			plan.Assignment, plan.SearchSteps, online.Assignment, online.SearchSteps)
	}
}

// A plan that falls back to every core at F0 after Algorithm 1 found no
// tuple still reports the search's steps and its T.
func TestEEWAFallbackKeepsSearchSteps(t *testing.T) {
	cfg := machine.Opteron16()
	cfg.Cores = 2
	e := NewEEWA()
	prof := profile.New(cfg.Freqs)
	env := &Env{Cfg: cfg, AdjusterCharge: 2e-3}
	e.BeginBatch(0, prof, env)
	prof.RecordBulk("wide", 10, 10e-3, 1e-3, 0) // ten 1 ms tasks on two cores
	env.IdealTime = 1e-3
	plan := e.BeginBatch(1, prof, env)
	wantAllFastClassic(t, "infeasible batch", plan, env)
	if !plan.Infeasible || plan.SearchSteps != len(cfg.Freqs) {
		t.Errorf("infeasible %v after %d search steps, want true after %d (one per level)", plan.Infeasible, plan.SearchSteps, len(cfg.Freqs))
	}
	if plan.IdealTime != env.IdealTime {
		t.Errorf("planned T %g, want %g", plan.IdealTime, env.IdealTime)
	}
}

// --- memory-bound batches under MemAware (§IV-D future work) ---------------

// feedMemBound records n memory-bound tasks of class name at each of
// the given levels, following t(ratio) = a + b·ratio.
func feedMemBound(p *profile.Profiler, name string, n int, a, b float64, levels ...int) {
	for _, lvl := range levels {
		ratio := machine.Opteron16().Freqs.Ratio(lvl)
		for i := 0; i < n; i++ {
			p.Ref(name).Record(a+b*ratio, lvl, 0.5)
		}
	}
}

// memAware returns a MemAware EEWA past its all-fast first batch, with
// T = 0.1 s, and the profiler and env it plans with.
func memAware(t *testing.T) (*EEWA, *profile.Profiler, *Env) {
	t.Helper()
	cfg := machine.Opteron16()
	p, err := New("eewa-memaware", cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := p.(*EEWA)
	prof := profile.New(cfg.Freqs)
	env := &Env{Cfg: cfg, AdjusterCharge: 2e-3}
	if plan := e.BeginBatch(0, prof, env); plan.Adjusted {
		t.Fatalf("first batch plan %+v, want classic unadjusted", plan)
	}
	env.IdealTime = 0.1
	return e, prof, env
}

// wantAllFastClassic fails unless plan is the adjuster's all-fast
// classic fallback with the adjuster's cost charged.
func wantAllFastClassic(t *testing.T, what string, plan Plan, env *Env) {
	t.Helper()
	if !plan.Adjusted || !plan.ScatterAll || !plan.RandomSteal || plan.Overhead != env.AdjusterCharge {
		t.Errorf("%s: plan %+v, want the charged classic fallback", what, plan)
	}
	if plan.Assignment.U() != 1 || plan.Assignment.Groups[0].Level != 0 {
		t.Errorf("%s: groups %+v, want all cores at F0", what, plan.Assignment.Groups)
	}
}

func TestMemBoundBatchCalibratesThenConfigures(t *testing.T) {
	e, prof, env := memAware(t)
	mid := len(env.Cfg.Freqs) / 2

	// Only level-0 samples: one uniform batch at the mid-ladder level,
	// classic stealing, the adjuster's cost charged.
	feedMemBound(prof, "mb", 64, 0.006, 0.004, 0)
	plan := e.BeginBatch(1, prof, env)
	if !plan.Adjusted || !plan.ScatterAll || !plan.RandomSteal || plan.Overhead != env.AdjusterCharge {
		t.Fatalf("calibration plan %+v, want charged classic stealing", plan)
	}
	if err := plan.Assignment.Validate(env.Cfg.Cores, len(env.Cfg.Freqs)); err != nil {
		t.Fatal(err)
	}
	if plan.Assignment.U() != 1 || plan.Assignment.Groups[0].Level != mid {
		t.Errorf("calibration groups %+v, want every core at level %d", plan.Assignment.Groups, mid)
	}

	// After the calibration batch the fit succeeds and a configuration
	// below F0 appears: the class is 60% memory-bound, and 64 tasks of
	// t0 = 0.01 s leave 16 cores slack within T = 0.1 s.
	prof.Reset()
	feedMemBound(prof, "mb", 64, 0.006, 0.004, mid)
	plan = e.BeginBatch(2, prof, env)
	if !plan.Adjusted || plan.ScatterAll || plan.RandomSteal {
		t.Fatalf("configured plan %+v, want a class plan", plan)
	}
	if err := plan.Assignment.Validate(env.Cfg.Cores, len(env.Cfg.Freqs)); err != nil {
		t.Fatal(err)
	}
	if lvl := plan.Assignment.Groups[plan.Assignment.GroupOfClass("mb")].Level; lvl == 0 {
		t.Errorf("class mb kept at F0 (groups %+v), want downscaling", plan.Assignment.Groups)
	}
	if fitted, ok := memmodel.FitAll(prof, prof.Classes(), env.Cfg.Freqs); !ok || math.Abs(fitted[0].MemFrac-0.6) > 1e-9 {
		t.Errorf("fitted classes %+v (ok %v), want MemFrac 0.6: the class the adjuster planned", fitted, ok)
	}
}

func TestMemBoundBatchFallbacks(t *testing.T) {
	// Bad T, with one sampled level (no calibration without a T to
	// calibrate for) and with two.
	e, prof, env := memAware(t)
	feedMemBound(prof, "mb", 4, 0.01, 0.01, 0)
	env.IdealTime = -1
	plans := []Plan{e.BeginBatch(1, prof, env)}
	wantAllFastClassic(t, "bad T, one level", plans[0], env)
	feedMemBound(prof, "mb", 4, 0.01, 0.01, 2)
	plans = append(plans, e.BeginBatch(2, prof, env))
	wantAllFastClassic(t, "bad T", plans[1], env)

	// Empty profile: the application stays memory-bound, no class to
	// plan for.
	prof.Reset()
	env.IdealTime = 0.1
	plans = append(plans, e.BeginBatch(3, prof, env))
	wantAllFastClassic(t, "empty profile", plans[2], env)
	// None of these searched for a tuple, so none is infeasible.
	for i, p := range plans {
		if p.Infeasible {
			t.Errorf("fallback %d: plan marked infeasible without a tuple search", i)
		}
	}
	if e.adj.Infeasible != 0 {
		t.Errorf("adjuster Infeasible = %d after fallbacks that never searched, want 0", e.adj.Infeasible)
	}

	// Infeasible: per-batch work far beyond 16 cores within T.
	e, prof, env = memAware(t)
	feedMemBound(prof, "x", 400, 0.05, 0.05, 0, 2)
	plan := e.BeginBatch(1, prof, env)
	wantAllFastClassic(t, "infeasible", plan, env)
	if e.adj.Infeasible != 1 || !plan.Infeasible {
		t.Errorf("adjuster Infeasible = %d, plan.Infeasible = %v; want 1, true", e.adj.Infeasible, plan.Infeasible)
	}
}

// Regression: an offline snapshot whose classes carry MaxWork == 0 (a
// hand-edited or field-dropping round trip) must never reach the
// adjuster — Snapshot.Validate rejects it, and EEWA falls back to the
// classic first batch instead of building a CC table whose
// indivisibility bound is silently disabled.
func TestEEWAOfflineRejectsZeroMaxWork(t *testing.T) {
	cfg := machine.Opteron16()
	good := &profile.Snapshot{
		Freqs: []float64(cfg.Freqs),
		T:     4e-3,
		Classes: []profile.Class{
			{Name: "heavy", Count: 8, AvgWork: 2e-3, MaxWork: 2e-3},
			{Name: "light", Count: 64, AvgWork: 1e-4, MaxWork: 1e-4},
		},
	}
	e := NewEEWA()
	e.Offline = good
	plan := e.BeginBatch(0, profile.New(cfg.Freqs), &Env{Cfg: cfg})
	if !plan.Adjusted {
		t.Fatal("valid offline snapshot should configure before batch 0")
	}

	bad := &profile.Snapshot{
		Freqs: []float64(cfg.Freqs),
		T:     good.T,
		Classes: []profile.Class{
			{Name: "heavy", Count: 8, AvgWork: 2e-3, MaxWork: 0},
			{Name: "light", Count: 64, AvgWork: 1e-4, MaxWork: 1e-4},
		},
	}
	e = NewEEWA()
	e.Offline = bad
	plan = e.BeginBatch(0, profile.New(cfg.Freqs), &Env{Cfg: cfg})
	if plan.Adjusted || !plan.ScatterAll || !plan.RandomSteal {
		t.Errorf("MaxWork=0 offline snapshot reached the adjuster: plan %+v", plan)
	}
}

// TestIndexedPlacerDiscipline pins the placement discipline both engines
// execute: under a class plan the k-th task of a class goes to the
// (k mod n)-th of its n placement cores in its c-group's pool, unknown
// classes to the fastest group, independently of how class ids were
// assigned to names; under a scatter plan tasks round-robin over all
// cores whatever their class. Any divergence here would silently
// perturb schedules in the simulator and the live runtime alike.
func TestIndexedPlacerDiscipline(t *testing.T) {
	asn, err := cgroup.FromLevels([]int{0, 0, 1, 1, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	asn.ClassGroup["heavy"] = 0
	asn.ClassGroup["mid"] = 1
	asn.ClassGroup["light"] = 2
	plans := map[string]*Plan{
		"classes": {Assignment: asn},
		"scatter": {Assignment: allF0(t, 6), ScatterAll: true},
	}
	classes := []string{"heavy", "mid", "light", "never-profiled"}
	orders := map[string][]string{
		"forward":  classes,
		"reversed": {"never-profiled", "light", "mid", "heavy"},
	}
	for planName, plan := range plans {
		for orderName, order := range orders {
			id := map[string]int32{}
			for i, name := range order {
				id[name] = int32(i)
			}
			pl := NewIndexedPlacer(plan, 6, order)
			seen := map[string]int{} // tasks placed so far, per class
			rng := xrand.New(7)
			for i := 0; i < 500; i++ {
				name := classes[rng.Intn(len(classes))]
				wc, wg := i%6, 0
				if !plan.ScatterAll {
					members := plan.Assignment.PlacementCores(name)
					wc, wg = members[seen[name]%len(members)], plan.Assignment.GroupOfClass(name)
				}
				seen[name]++
				if gc, gg := pl.Place(id[name]); gc != wc || gg != wg {
					t.Fatalf("%s/%s task %d class %s: placed (%d,%d), want (%d,%d)",
						planName, orderName, i, name, gc, gg, wc, wg)
				}
			}
		}
	}
}

// SkipVictims stands in for a walk whose every probe fails, so it must
// leave the victim stream where that walk does and count the same
// probes, in total and per victim group — for random and preference
// plans, interleaved c-groups, every core, and walks in sequence (odd
// walks skip without a per-group counter).
func TestSkipVictimsMatchesFailedWalk(t *testing.T) {
	for _, cores := range []int{2, 4, 16} {
		for u := 1; u <= 4 && u <= cores; u++ {
			levels := make([]int, cores)
			for c := range levels {
				levels[c] = c % u
			}
			for _, random := range []bool{true, false} {
				asn, err := cgroup.FromLevels(levels, 4)
				if err != nil {
					t.Fatal(err)
				}
				so := NewStealOrder(&Plan{Assignment: asn, RandomSteal: random})
				for self := 0; self < cores; self++ {
					walkRNG, skipRNG := xrand.New(uint64(self)), xrand.New(uint64(self))
					walker, skipper := so.Walker(self, make([]int, cores)), so.Walker(self, make([]int, cores))
					for walk := 0; walk < 8; walk++ {
						want := make([]int, u)
						walker.ForEachVictim(walkRNG, func(v, g int) bool {
							want[g]++
							return false
						})
						got := make([]int, u)
						var n int
						if walk%2 == 0 {
							n = skipper.SkipVictims(skipRNG, func(g, k int) { got[g] += k })
						} else {
							n = skipper.SkipVictims(skipRNG, nil)
							copy(got, want)
						}
						total := 0
						for _, k := range want {
							total += k
						}
						if n != total || !reflect.DeepEqual(got, want) || *skipRNG != *walkRNG {
							t.Fatalf("cores %d u %d random %v self %d walk %d: skip %d probes %v, walk %d probes %v (same stream: %v)",
								cores, u, random, self, walk, n, got, total, want, *skipRNG == *walkRNG)
						}
					}
				}
			}
		}
	}
}

// NewIndexedPlacer builds a placer for plan on an m-core engine, for a
// batch whose class id i is named classes[i].
func NewIndexedPlacer(plan *Plan, cores int, classes []string) *IndexedPlacer {
	pl := new(IndexedPlacer)
	pl.Reset(plan, cores, classes)
	return pl
}

// NewStealOrder builds the steal order for plan.
func NewStealOrder(plan *Plan) *StealOrder {
	s := new(StealOrder)
	s.Reset(plan)
	return s
}
