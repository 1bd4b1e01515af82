package sweep

import (
	"bytes"
	"math"
	"strings"
	"testing"
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
		if r.Shards != 1 || r.Routing != "class" || r.LadderSplit != SplitUniform || r.Imbalance != 1 {
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
		len(full.LadderSplits) != 1 || full.LadderSplits[0] != SplitUniform {
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

func TestRunCellsErrorDeterministic(t *testing.T) {
	g := Grid{
		Benchmarks: []string{"md5", "nope"},
		Policies:   []string{"cilk"},
		Cores:      []int{4},
		Seeds:      []uint64{1},
	}
	e1, err1 := RunCells(g, 1)
	e8, err8 := RunCells(g, 8)
	if err1 == nil || err8 == nil {
		t.Fatalf("unknown benchmark must error (got %v, %v)", err1, err8)
	}
	if err1.Error() != err8.Error() {
		t.Errorf("error depends on worker count: %q vs %q", err1, err8)
	}
	if e1 != nil || e8 != nil {
		t.Error("failed sweeps must not return cells")
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
		{"md5", "cilk", 8, 1, 0x40044e5dae191219, 0x40826704e5c6b877},
		{"md5", "cilk", 8, 2, 0x4003bfda55081ba3, 0x4081e5dddd0f591d},
		{"md5", "cilk-d", 8, 1, 0x400472ad2d08acb7, 0x408109d350c17e28},
		{"md5", "cilk-d", 8, 2, 0x40038f98c24afa36, 0x40808117f242d642},
		{"md5", "eewa", 8, 1, 0x4003b46e97ebd35d, 0x40800ea8f89198aa},
		{"md5", "eewa", 8, 2, 0x4003c50540307a07, 0x408015b2e18b91be},
		{"md5", "cilk", 16, 1, 0x3ffa1352c9bd0bce, 0x408184fb9f8b040f},
		{"md5", "cilk", 16, 2, 0x3ffa1e9485898060, 0x40818c8bc9b86256},
		{"md5", "cilk-d", 16, 1, 0x3ff9fe9e8600d04e, 0x407d0ae41a8c3b7a},
		{"md5", "cilk-d", 16, 2, 0x3ffa182d7d38f972, 0x407d23892ec33d20},
		{"md5", "eewa", 16, 1, 0x3ff734e27423393f, 0x40786d4d615112b2},
		{"md5", "eewa", 16, 2, 0x3ff6612a928b28a6, 0x4077f7736b9153c0},
		{"lzw", "cilk", 8, 1, 0x400cda9d1cb966e0, 0x408a261e6208055a},
		{"lzw", "cilk", 8, 2, 0x400c429da5ef5458, 0x40899c5ede60e485},
		{"lzw", "cilk-d", 8, 1, 0x400cb2c52871b34c, 0x4088f4b26ff9b38d},
		{"lzw", "cilk-d", 8, 2, 0x400c6a7ff2e0b154, 0x4088c3163dd816df},
		{"lzw", "eewa", 8, 1, 0x400bc87a154a126d, 0x408849275486b841},
		{"lzw", "eewa", 8, 2, 0x400ba8adaa934318, 0x408836830927445f},
		{"lzw", "cilk", 16, 1, 0x400092e4d3a47288, 0x408645637c64fa00},
		{"lzw", "cilk", 16, 2, 0x40006d0898a13098, 0x408612838d189966},
		{"lzw", "cilk-d", 16, 1, 0x4000b8a36f633b1d, 0x408414488762981b},
		{"lzw", "cilk-d", 16, 2, 0x4000b4d16c97a6e1, 0x40840d05afae5a2e},
		{"lzw", "eewa", 16, 1, 0x3ffe3887400776a4, 0x4081ebfa8bb0f3a4},
		{"lzw", "eewa", 16, 2, 0x3ffe2f9eec4d17fe, 0x4081e52d4774b71c},
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
