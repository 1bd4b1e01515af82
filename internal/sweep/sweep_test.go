package sweep

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/workloads"
)

func smallGrid() Grid {
	return Grid{
		Benchmarks: []string{"md5"},
		Policies:   []string{"cilk", "eewa"},
		Cores:      []int{8, 16},
		Seeds:      []uint64{1},
	}
}

// run executes the grid on `workers` goroutines and aggregates it.
func run(g Grid, workers int) ([]Record, error) {
	cells, err := RunCells(g, workers)
	if err != nil {
		return nil, err
	}
	return Aggregate(cells), nil
}

func TestRunSmallGrid(t *testing.T) {
	recs, err := run(smallGrid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4 (2 policies × 2 sizes)", len(recs))
	}
	for _, r := range recs {
		if r.Makespan <= 0 || r.Energy <= 0 {
			t.Errorf("%+v degenerate", r)
		}
		if r.Policy == "cilk" && (r.NormTime != 1 || r.NormEnergy != 1) {
			t.Errorf("cilk cell must normalize to 1: %+v", r)
		}
		if r.Policy == "eewa" && r.NormEnergy >= 1 {
			t.Errorf("eewa at %d cores should save energy, got %.3f", r.Cores, r.NormEnergy)
		}
		if r.Runs != 1 {
			t.Errorf("runs = %d, want 1", r.Runs)
		}
		if r.Shards != 1 || r.Routing != "class" || r.LadderSplit != machine.SplitUniform || r.Imbalance != 1 {
			t.Errorf("default topology must be one uniform shard: %+v", r)
		}
	}
	// Sorted by (benchmark, cores, policy).
	if recs[0].Cores != 8 || recs[2].Cores != 16 {
		t.Errorf("records not sorted by cores: %+v", recs)
	}
}

func TestRunDefaults(t *testing.T) {
	g := Grid{Benchmarks: []string{"je"}, Cores: []int{4}, Seeds: []uint64{1}}.withDefaults()
	if len(g.Policies) != 3 {
		t.Errorf("default policies = %v", g.Policies)
	}
	full := Grid{}.withDefaults()
	if len(full.Benchmarks) != 7 || len(full.Seeds) != 3 || full.Cores[0] != 16 ||
		len(full.Shards) != 1 || full.Shards[0] != 1 ||
		len(full.Routings) != 1 || full.Routings[0] != "class" ||
		len(full.LadderSplits) != 1 || full.LadderSplits[0] != machine.SplitUniform {
		t.Errorf("defaults = %+v", full)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := RunCells(Grid{Benchmarks: []string{"nope"}, Seeds: []uint64{1}}, 1); err == nil {
		t.Error("unknown benchmark should error")
	}
	if _, err := RunCells(Grid{Benchmarks: []string{"md5"}, Policies: []string{"magic"}, Seeds: []uint64{1}}, 1); err == nil {
		t.Error("unknown policy should error")
	}
}

// TestValidateRejectsNamesBeforeAnyCell pins that an unknown policy or
// benchmark name is Validate's error, returned by RunCells before any
// cell runs: the grid's valid cells come first, and the registry they
// would have fed records no simulation.
func TestValidateRejectsNamesBeforeAnyCell(t *testing.T) {
	for _, g := range []Grid{
		{Benchmarks: []string{"md5"}, Policies: []string{"cilk", "eewa-greedy", "bogus"}},
		{Benchmarks: []string{"md5", "membound", "bogus"}, Policies: []string{"cilk"}},
	} {
		g.Seeds = []uint64{1}
		want := g.Validate()
		if want == nil {
			t.Fatalf("Validate accepted %v / %v", g.Benchmarks, g.Policies)
		}
		g.Obs = obs.NewRegistry()
		cells, err := RunCells(g, 1)
		if err == nil || err.Error() != want.Error() || cells != nil {
			t.Errorf("RunCells = %d cells, %v; want Validate's error %v", len(cells), err, want)
		}
		if runs := g.Obs.At("eewa_sim_runs_total"); runs != nil {
			t.Errorf("a cell ran before the name was rejected: eewa_sim_runs_total = %v", runs.(*obs.Counter).Value())
		}
	}
	if err := (Grid{Benchmarks: []string{"membound"}, Policies: []string{"eewa-memaware", "eewa-ignore"}}).Validate(); err != nil {
		t.Errorf("membound and the EEWA variants are grid values: %v", err)
	}
}

// A value repeated on an axis would run its cells again and fold them
// into one record as extra seeds (md5,md5 × 2 seeds read as 4 runs, and
// a narrower CI95 than the 2 seeds give), so Validate names the axis
// and the value, and RunCells runs nothing.
func TestValidateRejectsRepeatedAxisValue(t *testing.T) {
	for _, c := range []struct {
		g    Grid
		want string
	}{
		{Grid{Benchmarks: []string{"md5", "md5"}}, "sweep: benchmark md5 is listed twice"},
		{Grid{Policies: []string{"cilk", "eewa", "eewa"}}, "sweep: policy eewa is listed twice"},
		{Grid{Cores: []int{16, 8, 16}}, "sweep: cores 16 is listed twice"},
		{Grid{Seeds: []uint64{1, 1}}, "sweep: seed 1 is listed twice"},
		{Grid{Shards: []int{2, 2}}, "sweep: shards 2 is listed twice"},
		{Grid{Routings: []string{"rr", "rr"}}, "sweep: routing rr is listed twice"},
		{Grid{LadderSplits: []string{"tiered", "tiered"}}, "sweep: ladder split tiered is listed twice"},
	} {
		if err := c.g.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("Validate(%+v) = %v, want %q", c.g, err, c.want)
		}
		c.g.Obs = obs.NewRegistry()
		if cells, err := RunCells(c.g, 1); err == nil || cells != nil {
			t.Errorf("RunCells(%+v) = %d cells, %v; want %q and no cell", c.g, len(cells), err, c.want)
		}
		if runs := c.g.Obs.At("eewa_sim_runs_total"); runs != nil {
			t.Errorf("%+v: a cell ran before the repeat was rejected", c.g)
		}
	}
}

func TestCI95PopulatedWithMultipleSeeds(t *testing.T) {
	recs, err := run(Grid{
		Benchmarks: []string{"lzw"},
		Policies:   []string{"cilk"},
		Cores:      []int{16},
		Seeds:      []uint64{1, 2, 3},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].MakespanCI <= 0 || recs[0].EnergyCI <= 0 {
		t.Error("CI should be positive with 3 differing seeds")
	}
}

func TestWriteCSV(t *testing.T) {
	recs, err := run(smallGrid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV lines = %d, want 5", len(lines))
	}
	if !strings.HasPrefix(lines[0], "benchmark,policy,routing,ladder_split,shards,cores") {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if n := strings.Count(l, ","); n != 15 {
			t.Errorf("row %q has %d commas, want 15", l, n)
		}
	}
}

func TestWriteTable(t *testing.T) {
	recs, err := run(smallGrid(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "md5") {
		t.Errorf("table output:\n%s", buf.String())
	}
}

// TestWriteTableAlignsLongPolicyNames: every row's columns start where
// the header's do, also when a policy name is longer than the header's
// column (eewa-exhaustive).
func TestWriteTableAlignsLongPolicyNames(t *testing.T) {
	recs, err := run(Grid{Benchmarks: []string{"md5"}, Policies: []string{"eewa", "eewa-exhaustive", "eewa-greedy"},
		Cores: []int{8}, Seeds: []uint64{1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want a header and 3 rows:\n%s", len(lines), buf.String())
	}
	// Where each column sits in the header: the four text columns are
	// left-aligned (the label's start), the numbers right-aligned (its
	// end).
	head := lines[0]
	var want [][2]int // {start, end} of each field; -1 where unpinned
	for _, l := range []string{"bench", "policy", "route", "split"} {
		want = append(want, [2]int{strings.Index(head, l), -1})
	}
	for _, l := range []string{"shards", "cores", "time (s)", "energy (J)", "util", "imbal", "norm t", "norm E"} {
		want = append(want, [2]int{-1, strings.Index(head, l) + len(l)})
	}
	for _, row := range lines[1:] {
		var got [][2]int
		for i := 0; i < len(row); i++ {
			if row[i] != ' ' && (i == 0 || row[i-1] == ' ') {
				got = append(got, [2]int{i, -1})
			}
			if row[i] != ' ' && (i == len(row)-1 || row[i+1] == ' ') {
				got[len(got)-1][1] = i + 1
			}
		}
		if len(got) != len(want) {
			t.Fatalf("row %q has %d fields, want %d", row, len(got), len(want))
		}
		for i, w := range want {
			if w[0] >= 0 && got[i][0] != w[0] || w[1] >= 0 && got[i][1] != w[1] {
				t.Errorf("row %q: field %d spans %v, the header's column %v", row, i, got[i], w)
			}
		}
	}
}

func TestParallelParity(t *testing.T) {
	// The parity contract of the parallel driver: any worker count
	// produces byte-for-byte the cells of the sequential run, modulo
	// the host wall-clock field.
	g := Grid{
		Benchmarks: []string{"md5", "lzw"},
		Policies:   []string{"cilk", "cilk-d", "eewa"},
		Cores:      []int{8},
		Seeds:      []uint64{1, 2},
	}
	seq, err := RunCells(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{2, 8} {
		par, err := RunCells(g, j)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cellsJSON(t, par), cellsJSON(t, seq); got != want {
			t.Errorf("-j %d diverged from -j 1:\n%s\nvs\n%s", j, got, want)
		}
	}
}

func TestRunParallelMatchesRun(t *testing.T) {
	g := smallGrid()
	seq, err := run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := run(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("record counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("record %d differs:\n%+v\n%+v", i, seq[i], par[i])
		}
	}
}

// cellsJSON renders cells for parity comparison, zeroing the
// wall-clock field (the only legitimately nondeterministic one).
func cellsJSON(t *testing.T, cells []Cell) string {
	t.Helper()
	c2 := append([]Cell(nil), cells...)
	for i := range c2 {
		c2[i].WallNS = 0
	}
	var buf bytes.Buffer
	if err := WriteCellsJSON(&buf, c2); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCellSeedGridShapeIndependent(t *testing.T) {
	// Adding a policy to the grid must not reseed anyone else's cells:
	// the same (benchmark, policy, cores, seed) must produce the same
	// outcome in any grid that contains it.
	small, err := RunCells(Grid{
		Benchmarks: []string{"md5"}, Policies: []string{"eewa"},
		Cores: []int{8}, Seeds: []uint64{1},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunCells(Grid{
		Benchmarks: []string{"lzw", "md5"}, Policies: []string{"cilk", "wats", "eewa"},
		Cores: []int{4, 8}, Seeds: []uint64{3, 1},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := small[0]
	for _, c := range big {
		if c.Benchmark == want.Benchmark && c.Policy == want.Policy && c.Cores == want.Cores && c.Seed == want.Seed {
			c.WallNS, want.WallNS = 0, 0
			if cellsJSON(t, []Cell{c}) != cellsJSON(t, []Cell{want}) {
				t.Errorf("cell outcome depends on grid shape:\n%+v\n%+v", c, want)
			}
			return
		}
	}
	t.Fatal("shared cell not found in the bigger grid")
}

// TestRunCellsErrorDeterministic pins the pool's error rule: with
// several failing items, the first failing one in input order wins for
// every worker count, and a failed run returns no results. (Validate
// rejects a grid's unknown names before the pool, so the pool is driven
// directly.)
func TestRunCellsErrorDeterministic(t *testing.T) {
	items := make([]int, 40)
	for i := range items {
		items[i] = i
	}
	fail := func(i int) (int, error) {
		if i%7 == 5 {
			return 0, fmt.Errorf("item %d failed", i)
		}
		return i, nil
	}
	for _, workers := range []int{1, 3, 8} {
		out, err := runPool(items, workers, fail)
		if err == nil || err.Error() != "item 5 failed" {
			t.Errorf("%d workers: error %v, want the first failing item's", workers, err)
		}
		if out != nil {
			t.Errorf("%d workers: a failed run returned %d results", workers, len(out))
		}
	}
}

// TestFlatSweepGolden pins the one-shard grid bit for bit: the
// makespan and energy of the 24 cells of `eewa-sweep -bench md5,lzw
// -cores 8,16 -seeds 2` (default policies and topology). A change here
// reseeds or reschedules the paper's grid; only a deliberate model or
// policy change may update the table.
func TestFlatSweepGolden(t *testing.T) {
	golden := []struct {
		bench, policy    string
		cores            int
		seed             uint64
		makespan, energy uint64 // math.Float64bits
	}{
		{"md5", "cilk", 8, 1, 0x4004ba1867f84f6c, 0x4082c8a61e39080e},
		{"md5", "cilk", 8, 2, 0x40039638f8fcac63, 0x4081c023a1a4fc4a},
		{"md5", "cilk-d", 8, 1, 0x4004bb0455f2936a, 0x4081377894889b26},
		{"md5", "cilk-d", 8, 2, 0x40039724e6f6f063, 0x408085c3fd713dd9},
		{"md5", "eewa", 8, 1, 0x4003b86cdd1f9eba, 0x408010945e232b7a},
		{"md5", "eewa", 8, 2, 0x400395521bb8d838, 0x407fefce7a9c07d4},
		{"md5", "cilk", 16, 1, 0x3ffa175f2a076845, 0x408187b3f03cfa2d},
		{"md5", "cilk", 16, 2, 0x3ffa1db53ce917f7, 0x40818bf5c4ec9c2e},
		{"md5", "cilk-d", 16, 1, 0x3ffa193705fbf043, 0x407d227b8494d5b6},
		{"md5", "cilk-d", 16, 2, 0x3ffa1f8d18dd9ff5, 0x407d2762e3cab20a},
		{"md5", "eewa", 16, 1, 0x3ff6a6bf45837770, 0x40782adf0b7e0651},
		{"md5", "eewa", 16, 2, 0x3ff65cb76e231e55, 0x4077f4045f789ae5},
		{"lzw", "cilk", 8, 1, 0x400ca570a5113c89, 0x4089f5ee15979ef8},
		{"lzw", "cilk", 8, 2, 0x400c7049cea8771a, 0x4089c5c2e348ac09},
		{"lzw", "cilk-d", 8, 1, 0x400ca65c930b8087, 0x4088e72c7c6d5218},
		{"lzw", "cilk-d", 8, 2, 0x400c7135bca2bb18, 0x4088c9ee58afc777},
		{"lzw", "eewa", 8, 1, 0x400bccd0d7f7da47, 0x40884d713ed99b97},
		{"lzw", "eewa", 8, 2, 0x400bd142d40fd1c6, 0x40884ff286fc6ae9},
		{"lzw", "cilk", 16, 1, 0x4000b46deca0a87e, 0x40867273b5f7e284},
		{"lzw", "cilk", 16, 2, 0x4000a9659cbf147c, 0x408663a08aa0c3a2},
		{"lzw", "cilk-d", 16, 1, 0x4000b559da9aec7e, 0x408411c5d137c453},
		{"lzw", "cilk-d", 16, 2, 0x4000aa518ab9587b, 0x40840b8621ba2288},
		{"lzw", "eewa", 16, 1, 0x3ffe39fe1920188a, 0x4081eab5603ac77d},
		{"lzw", "eewa", 16, 2, 0x3ffe4216859ad5fb, 0x4081eae58c5716c5},
	}
	cells, err := RunCells(Grid{Benchmarks: []string{"md5", "lzw"}, Cores: []int{8, 16}, Seeds: []uint64{1, 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(golden) {
		t.Fatalf("got %d cells, want %d", len(cells), len(golden))
	}
	for i, g := range golden {
		c := cells[i]
		if c.Benchmark != g.bench || c.Policy != g.policy || c.Cores != g.cores || c.Seed != g.seed {
			t.Fatalf("cell %d is %s/%s/%d seed %d, want %s/%s/%d seed %d",
				i, c.Benchmark, c.Policy, c.Cores, c.Seed, g.bench, g.policy, g.cores, g.seed)
		}
		if math.Float64bits(c.Makespan) != g.makespan || math.Float64bits(c.Energy) != g.energy {
			t.Errorf("%s/%s/%d seed %d: makespan %#x energy %#x, want %#x %#x",
				g.bench, g.policy, g.cores, g.seed,
				math.Float64bits(c.Makespan), math.Float64bits(c.Energy), g.makespan, g.energy)
		}
	}
}

// TestCellRunsOnGridSeed pins the seed rule: a one-shard cell is
// sched.Run of the benchmark's workload at the grid seed, with the
// engine seeded by the same grid seed — the run every experiment
// driver makes.
func TestCellRunsOnGridSeed(t *testing.T) {
	const seed = 7
	cells, err := RunCells(Grid{Benchmarks: []string{"md5"}, Policies: []string{"cilk"}, Cores: []int{8}, Seeds: []uint64{seed}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workloads.ByName("md5")
	if err != nil {
		t.Fatal(err)
	}
	params := sched.Params{}
	params.Seed = seed
	want, err := sched.Run(machine.Generic(8), b.Workload(seed), policy.NewCilk(), params)
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	if math.Float64bits(c.Makespan) != math.Float64bits(want.Makespan) ||
		math.Float64bits(c.Energy) != math.Float64bits(want.Energy) || c.Steals != want.Steals {
		t.Errorf("cell makespan %v energy %v steals %d, want the grid-seed run's %v %v %d",
			c.Makespan, c.Energy, c.Steals, want.Makespan, want.Energy, want.Steals)
	}
}
