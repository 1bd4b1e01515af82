package sweep

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/workloads"
)

func smallClusterGrid() ClusterGrid {
	return ClusterGrid{
		Benchmarks:   []string{"md5"},
		Policies:     []string{"cilk", "eewa"},
		Shards:       []int{1, 2},
		Routings:     []string{serve.RouteClass, serve.RouteRR},
		LadderSplits: []string{SplitUniform},
		Cores:        []int{8},
		Seeds:        []uint64{1},
	}
}

func TestRunClusterSmallGrid(t *testing.T) {
	cells, err := RunClusterCells(smallClusterGrid(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8 (2 policies × 2 shards × 2 routings)", len(cells))
	}
	for _, c := range cells {
		if c.Makespan <= 0 || c.Energy <= 0 || c.ActiveShards == 0 {
			t.Errorf("degenerate cell %+v", c)
		}
		if c.ActiveShards > c.Shards {
			t.Errorf("more active shards than shards: %+v", c)
		}
		if c.Imbalance < 1 {
			t.Errorf("imbalance %g < 1 (max/mean cannot undercut the mean): %+v", c.Imbalance, c)
		}
		var sum float64
		for _, e := range c.ShardEnergies {
			sum += e
		}
		if diff := sum - c.Energy; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("shard energies sum %g ≠ cell energy %g", sum, c.Energy)
		}
	}
}

// The parity contract the -cluster acceptance clause demands: any
// worker count yields byte-for-byte the sequential cells, modulo wall
// clock.
func TestClusterParallelParity(t *testing.T) {
	g := smallClusterGrid()
	seq, err := RunClusterCells(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{2, 8} {
		par, err := RunClusterCells(g, j)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := clusterJSON(t, par), clusterJSON(t, seq); got != want {
			t.Errorf("-j %d diverged from -j 1:\n%s\nvs\n%s", j, got, want)
		}
	}
}

func clusterJSON(t *testing.T, cells []ClusterCell) string {
	t.Helper()
	c2 := append([]ClusterCell(nil), cells...)
	for i := range c2 {
		c2[i].WallNS = 0
	}
	var buf bytes.Buffer
	if err := WriteClusterCellsJSON(&buf, c2); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// Adding a routing or width to the grid must not reseed anyone else's
// cells — the cluster cell seed derives from identity, not grid shape.
func TestClusterCellSeedGridShapeIndependent(t *testing.T) {
	small, err := RunClusterCells(ClusterGrid{
		Benchmarks: []string{"md5"}, Policies: []string{"eewa"},
		Shards: []int{2}, Routings: []string{serve.RouteClass},
		LadderSplits: []string{SplitUniform}, Cores: []int{8}, Seeds: []uint64{1},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunClusterCells(ClusterGrid{
		Benchmarks: []string{"lzw", "md5"}, Policies: []string{"cilk", "eewa"},
		Shards: []int{1, 2, 4}, Routings: serve.RoutingPolicies(),
		LadderSplits: LadderSplits(), Cores: []int{8}, Seeds: []uint64{3, 1},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := small[0]
	for _, c := range big {
		if c.Benchmark == want.Benchmark && c.Policy == want.Policy &&
			c.Routing == want.Routing && c.LadderSplit == want.LadderSplit &&
			c.Shards == want.Shards && c.Cores == want.Cores && c.Seed == want.Seed {
			c.WallNS, want.WallNS = 0, 0
			if clusterJSON(t, []ClusterCell{c}) != clusterJSON(t, []ClusterCell{want}) {
				t.Errorf("cell outcome depends on grid shape:\n%+v\n%+v", c, want)
			}
			return
		}
	}
	t.Fatal("shared cell not found in the bigger grid")
}

func TestClusterGridValidate(t *testing.T) {
	bad := []ClusterGrid{
		{Shards: []int{0}},
		{Shards: []int{-2}},
		{Cores: []int{0}},
		{Routings: []string{"teleport"}},
		{LadderSplits: []string{"diagonal"}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid grid accepted: %+v", i, g)
		}
	}
	if err := (ClusterGrid{}.withDefaults()).Validate(); err != nil {
		t.Errorf("default grid invalid: %v", err)
	}
	if _, err := RunClusterCells(ClusterGrid{Benchmarks: []string{"md5"}, Shards: []int{0}}, 1); err == nil {
		t.Error("RunClusterCells must validate the grid")
	}
}

// synWorkload builds a workload whose batches hold one task per class
// name listed, with IDs numbered through the whole stream.
func synWorkload(batches ...[]string) *task.Workload {
	w := &task.Workload{Name: "syn"}
	id := 0
	for _, classes := range batches {
		var b task.Batch
		for _, c := range classes {
			b.Tasks = append(b.Tasks, task.Task{ID: id, Class: c, Work: 1e-3})
			id++
		}
		w.Batches = append(w.Batches, b)
	}
	return w
}

// shardOf maps every task ID to the shard splitWorkload routed it to.
func shardOf(parts []*task.Workload) map[int]int {
	at := map[int]int{}
	for i, part := range parts {
		if part == nil {
			continue
		}
		for _, b := range part.Batches {
			for _, tk := range b.Tasks {
				at[tk.ID] = i
			}
		}
	}
	return at
}

// The sweep's router over the shared rule: task conservation and no
// empty batches under every routing and split, and the shape each rule
// promises.
func TestSplitWorkload(t *testing.T) {
	b, err := workloads.ByName("md5")
	if err != nil {
		t.Fatal(err)
	}
	w := b.Workload(1)
	total := 0
	for _, batch := range w.Batches {
		total += len(batch.Tasks)
	}
	base := machine.Generic(8)
	uniform := []machine.Config{base, base, base}
	// Fastest ladder last, so "fastest first" is not the index order.
	tiered := []machine.Config{machine.Tiered(base, 2), machine.Tiered(base, 1), base}

	for _, mcs := range [][]machine.Config{uniform, tiered} {
		for _, routing := range serve.RoutingPolicies() {
			parts := splitWorkload(w, mcs, routing)
			if len(parts) != 3 {
				t.Fatalf("%s: %d parts", routing, len(parts))
			}
			got := 0
			for i, part := range parts {
				if part == nil {
					continue
				}
				if err := part.Validate(); err != nil {
					t.Errorf("%s shard %d: split produced an invalid workload: %v", routing, i, err)
				}
				for _, batch := range part.Batches {
					if len(batch.Tasks) == 0 {
						t.Errorf("%s shard %d: empty batch survived the split", routing, i)
					}
					got += len(batch.Tasks)
				}
			}
			if got != total {
				t.Errorf("%s: split lost tasks: %d of %d", routing, got, total)
			}
		}
	}

	// rr deals a batch evenly, whatever the classes.
	syn := synWorkload([]string{"a", "a", "b", "a", "c", "a", "b", "a", "a"})
	for i, part := range splitWorkload(syn, tiered, serve.RouteRR) {
		if part == nil || len(part.Batches[0].Tasks) != 3 {
			t.Errorf("rr shard %d got %+v, want 3 tasks", i, part)
		}
	}

	// least balances task counts in every batch, whatever the classes.
	for _, part := range splitWorkload(w, uniform, serve.RouteLeast) {
		if part == nil || len(part.Batches) != len(w.Batches) {
			t.Fatalf("least left a shard out of some batch: %+v", part)
		}
		for bi, batch := range part.Batches {
			if n, want := len(batch.Tasks), len(w.Batches[bi].Tasks); n < want/3 || n > (want+2)/3 {
				t.Errorf("least batch %d: shard got %d of %d tasks", bi, n, want)
			}
		}
	}

	// class, tiered: a class no shard has run goes to the fastest ladder.
	at := shardOf(splitWorkload(syn, tiered, serve.RouteClass))
	for id := range syn.Batches[0].Tasks {
		if at[id] != 2 {
			t.Errorf("class/tiered: unknown-class task %d went to shard %d, want the fastest (2)", id, at[id])
		}
	}

	// class: a class a shard ran in the previous batch stays there. The
	// first batch spreads three unknown classes over the equal shards by
	// headroom (a→0, b→1, c→2); the second follows them.
	two := synWorkload([]string{"a", "b", "c"}, []string{"c", "c", "a", "b", "a"})
	at = shardOf(splitWorkload(two, uniform, serve.RouteClass))
	want := map[string]int{"a": 0, "b": 1, "c": 2}
	for _, batch := range two.Batches {
		for _, tk := range batch.Tasks {
			if at[tk.ID] != want[tk.Class] {
				t.Errorf("class: task %d (%s) went to shard %d, want %d", tk.ID, tk.Class, at[tk.ID], want[tk.Class])
			}
		}
	}
}

// The sweep routes by the live router's rule: a manual-flush server
// with the same shards, fed each batch as one-task jobs and flushed at
// the batch boundary, places every job on the shard splitWorkload picks.
// Between flushes a live shard's headroom falls by the tasks routed to
// it, and its plan classes are the ones its previous batch ran — the
// two views the sweep builds.
func TestSplitWorkloadMatchesLiveRouter(t *testing.T) {
	base := machine.Generic(8)
	uniform := []machine.Config{base, base, base}
	tiered := []machine.Config{machine.Tiered(base, 1), base, machine.Tiered(base, 2)}
	w := synWorkload(
		[]string{"sha1", "sha1", "lzw", "sha1", "dmc"},
		[]string{"lzw", "sha1", "lzw", "lzw", "sha1", "sha1", "dmc"},
		[]string{"dmc", "dmc", "sha1"},
		[]string{"lzw", "je", "sha1", "lzw", "sha1", "je", "dmc", "lzw"},
	)
	for _, routing := range serve.RoutingPolicies() {
		routeLive(t, w, uniform, routing+"/uniform")
		routeLive(t, w, tiered, routing+"/tiered")
	}
}

// routeLive checks every job of w lands on the live shard the sweep
// routes its task to.
func routeLive(t *testing.T, w *task.Workload, mcs []machine.Config, cell string) {
	t.Helper()
	routing, _, _ := strings.Cut(cell, "/")
	srv, err := serve.New(serve.Config{
		Workers: 2, Policy: "cilk", Seed: 1, Shards: len(mcs), ShardMachines: mcs,
		Routing: routing, ManualFlush: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	at := shardOf(splitWorkload(w, mcs, routing))
	for bi, b := range w.Batches {
		pending := make([]*serve.Pending, len(b.Tasks))
		for k, tk := range b.Tasks {
			p, rej := srv.Submit(serve.JobRequest{Tenant: "t", Func: tk.Class, SizeBytes: 64, Count: 1})
			if rej != nil {
				t.Fatalf("%s: batch %d job %d rejected: %+v", cell, bi, k, rej)
			}
			pending[k] = p
		}
		srv.Flush()
		for k, p := range pending {
			st, res, msg := p.Wait()
			if st != 200 || res.Shard == nil {
				t.Fatalf("%s: batch %d job %d: status %d %s", cell, bi, k, st, msg)
			}
			if id := b.Tasks[k].ID; *res.Shard != at[id] {
				t.Errorf("%s: batch %d job %d (%s): live shard %d, sweep shard %d",
					cell, bi, k, b.Tasks[k].Class, *res.Shard, at[id])
			}
		}
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// A single-shard cluster cell must agree with the flat sweep's grid on
// outcome shape: one active shard holding the whole workload.
func TestClusterSingleShardDegenerates(t *testing.T) {
	cells, err := RunClusterCells(ClusterGrid{
		Benchmarks: []string{"md5"}, Policies: []string{"eewa"},
		Shards: []int{1}, Routings: serve.RoutingPolicies(),
		LadderSplits: []string{SplitUniform}, Cores: []int{8}, Seeds: []uint64{1},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All three routings degenerate to the same single-shard placement.
	a := cells[0]
	for _, c := range cells[1:] {
		if c.Makespan != a.Makespan || c.Energy != a.Energy || c.Steals != a.Steals {
			t.Errorf("1-shard outcomes differ across routings:\n%+v\n%+v", a, c)
		}
	}
	if a.ActiveShards != 1 || a.Imbalance != 1 {
		t.Errorf("single-shard cell %+v", a)
	}
}

func TestAggregateClusterNormalization(t *testing.T) {
	// "least" spreads tasks regardless of class mix, so two shards must
	// strictly beat one on makespan even for a single-class benchmark.
	cells, err := RunClusterCells(ClusterGrid{
		Benchmarks: []string{"md5"}, Policies: []string{"eewa"},
		Shards: []int{1, 2}, Routings: []string{serve.RouteLeast},
		LadderSplits: []string{SplitUniform}, Cores: []int{8}, Seeds: []uint64{1, 2},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := AggregateCluster(cells)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Runs != 2 {
			t.Errorf("runs = %d, want 2 seeds folded: %+v", r.Runs, r)
		}
		switch r.Shards {
		case 1:
			if r.NormTime != 1 || r.NormEnergy != 1 {
				t.Errorf("1-shard row must normalize to itself: %+v", r)
			}
		case 2:
			if r.NormTime <= 0 || r.NormTime >= 1 {
				t.Errorf("2 shards should beat 1 on makespan: norm_time %g", r.NormTime)
			}
			if r.NormEnergy <= 0 {
				t.Errorf("norm energy unset: %+v", r)
			}
		}
	}
}

func TestWriteClusterCSVAndTable(t *testing.T) {
	cells, err := RunClusterCells(smallClusterGrid(), 4)
	if err != nil {
		t.Fatal(err)
	}
	recs := AggregateCluster(cells)
	var csv bytes.Buffer
	if err := WriteClusterCSV(&csv, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(recs)+1 {
		t.Fatalf("CSV lines = %d, want %d", len(lines), len(recs)+1)
	}
	if !strings.HasPrefix(lines[0], "benchmark,policy,routing,ladder_split,shards") {
		t.Errorf("header = %q", lines[0])
	}
	wantCommas := strings.Count(lines[0], ",")
	for _, l := range lines[1:] {
		if n := strings.Count(l, ","); n != wantCommas {
			t.Errorf("row %q has %d commas, want %d", l, n, wantCommas)
		}
	}
	var tbl bytes.Buffer
	if err := WriteClusterTable(&tbl, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "md5") || !strings.Contains(tbl.String(), "shards") {
		t.Errorf("table output:\n%s", tbl.String())
	}
}
