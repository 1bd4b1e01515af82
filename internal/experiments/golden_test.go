package experiments

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/sweep"
)

// sameFloat is bit equality on amd64, where the constants were
// captured; other ports may fuse multiply-adds, so they get 1e-9.
func sameFloat(got, want float64) bool {
	if runtime.GOARCH == "amd64" {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}

// figPoint is one (benchmark, cores, policy) point of Fig. 6 or Fig. 9
// as the golden tables pin it: the policy by its canonical identifier,
// the floats as they come out of the driver.
type figPoint struct {
	bench, policy                      string
	cores                              int
	time, energy, normTime, normEnergy float64
}

// figPoints lists a figure's records as points, in figure order.
func figPoints(t *testing.T, recs []sweep.Record, err error) []figPoint {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var out []figPoint
	for _, r := range recs {
		out = append(out, figPoint{bench: r.Benchmark, policy: r.Policy, cores: r.Cores,
			time: r.Makespan, energy: r.Energy, normTime: r.NormTime, normEnergy: r.NormEnergy})
	}
	return out
}

// fig6Points runs Fig. 6 and lists its points in figure order.
func fig6Points(t *testing.T, seeds []uint64) []figPoint {
	t.Helper()
	recs, err := Fig6(seeds)
	return figPoints(t, recs, err)
}

// fig9Points runs Fig. 9 and lists its points in figure order.
func fig9Points(t *testing.T, seeds []uint64) []figPoint {
	t.Helper()
	recs, err := Fig9(seeds)
	return figPoints(t, recs, err)
}

// TestFiguresGolden pins Fig. 6's 21 normalized (time, energy) pairs
// and Fig. 9's 12 points at seeds {1, 2, 3}, the default seeds of
// `eewa-bench`. A change here moves the paper's headline figures; only
// a deliberate model or policy change may update the tables.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 6 and Fig. 9 sweeps in -short mode")
	}
	// {bench, policy, norm time, norm energy} as math.Float64bits.
	fig6 := []struct {
		bench, policy        string
		normTime, normEnergy uint64
	}{
		{"bwc", "cilk", 0x3ff0000000000000, 0x3ff0000000000000},
		{"bwc", "cilk-d", 0x3ff000d22ac462e9, 0x3fec7fe68f8991aa},
		{"bwc", "eewa", 0x3fedfb7c91f7606f, 0x3fea0871fe15a303},
		{"bzip2", "cilk", 0x3ff0000000000000, 0x3ff0000000000000},
		{"bzip2", "cilk-d", 0x3ff000d36747671d, 0x3feda0f346079b26},
		{"bzip2", "eewa", 0x3fefb661e14927f7, 0x3fec095dc324e152},
		{"dmc", "cilk", 0x3ff0000000000000, 0x3ff0000000000000},
		{"dmc", "cilk-d", 0x3ff00108d05cdf1c, 0x3fec55ecb5b6f744},
		{"dmc", "eewa", 0x3fefbb66e5e69830, 0x3feaadb5606ef082},
		{"je", "cilk", 0x3ff0000000000000, 0x3ff0000000000000},
		{"je", "cilk-d", 0x3ff000eb98d2def4, 0x3feceb76082c21dc},
		{"je", "eewa", 0x3fee6486166196c2, 0x3feb98b601928750},
		{"lzw", "cilk", 0x3ff0000000000000, 0x3ff0000000000000},
		{"lzw", "cilk-d", 0x3ff000e329466366, 0x3fecb026f3e345ad},
		{"lzw", "eewa", 0x3fed1ab13af7438a, 0x3fe9ac9ebe505b2c},
		{"md5", "cilk", 0x3ff0000000000000, 0x3ff0000000000000},
		{"md5", "cilk-d", 0x3ff001207107b599, 0x3fea8ecce61af66e},
		{"md5", "eewa", 0x3feb796c62375ade, 0x3fe5dd7ae40f3cd7},
		{"sha1", "cilk", 0x3ff0000000000000, 0x3ff0000000000000},
		{"sha1", "cilk-d", 0x3ff000ea0f7e8dbd, 0x3fe8caf642f7ccd5},
		{"sha1", "eewa", 0x3fec3c5101091930, 0x3fe3f14ec0f2ad89},
	}
	// {cores, policy, time, energy, norm time, norm energy} as
	// math.Float64bits; the benchmark is dmc.
	fig9 := []struct {
		cores                              int
		policy                             string
		time, energy, normTime, normEnergy uint64
	}{
		{4, "cilk", 0x4015ab98d6cf96d7, 0x408dcbf2275d6f7c, 0x3ff0000000000000, 0x3ff0000000000000},
		{4, "cilk-d", 0x4015ac0ecdccb8d5, 0x408d8d551fbc464b, 0x3ff00057190d40c5, 0x3fefbcc1b1178b8c},
		{4, "eewa", 0x4015be7d655a08b3, 0x408da112c3903657, 0x3ff00df3031f5fb5, 0x3fefd1f506dfc5a9},
		{8, "cilk", 0x4007e659db3c35e8, 0x4085a8c16eae90f0, 0x3ff0000000000000, 0x3ff0000000000000},
		{8, "cilk-d", 0x4007e745c93679e5, 0x4084ca8476d647a9, 0x3ff0009df21dc8f1, 0x3feeb7a88069131f},
		{8, "eewa", 0x40080c22f85119a4, 0x4084e0b81069ace3, 0x3ff0194bc6c52ebe, 0x3feed875a278321e},
		{12, "cilk", 0x400191431fad318b, 0x4083c36b83a2d7d4, 0x3ff0000000000000, 0x3ff0000000000000},
		{12, "cilk-d", 0x4001922f0da7758b, 0x4082309163f7f06c, 0x3ff000d6e10c82a7, 0x3fed73b80abbdac7},
		{12, "eewa", 0x3ffedb17e3fa96ab, 0x40809a649f8abb75, 0x3fec1a4eaa9a45eb, 0x3feae20ec1ee2481},
		{16, "cilk", 0x3ffc82773636787b, 0x408327a8186c9909, 0x3ff0000000000000, 0x3ff0000000000000},
		{16, "cilk-d", 0x3ffc844f122b0079, 0x4080f6221d1d6ed8, 0x3ff00108d05cdf1c, 0x3fec55ecb5b6f744},
		{16, "eewa", 0x3ffc455991d8a640, 0x407ff0671548e457, 0x3fefbb66e5e69830, 0x3feaadb5606ef082},
	}
	seeds := []uint64{1, 2, 3}

	got6 := fig6Points(t, seeds)
	if len(got6) != len(fig6) {
		t.Fatalf("Fig. 6: got %d points, want %d", len(got6), len(fig6))
	}
	for i, g := range fig6 {
		p := got6[i]
		if p.bench != g.bench || p.policy != g.policy {
			t.Fatalf("Fig. 6 point %d is %s/%s, want %s/%s", i, p.bench, p.policy, g.bench, g.policy)
		}
		if !sameFloat(p.normTime, math.Float64frombits(g.normTime)) || !sameFloat(p.normEnergy, math.Float64frombits(g.normEnergy)) {
			t.Errorf("Fig. 6 %s/%s: norm time %#x energy %#x, want %#x %#x", g.bench, g.policy,
				math.Float64bits(p.normTime), math.Float64bits(p.normEnergy), g.normTime, g.normEnergy)
		}
	}

	got9 := fig9Points(t, seeds)
	if len(got9) != len(fig9) {
		t.Fatalf("Fig. 9: got %d points, want %d", len(got9), len(fig9))
	}
	for i, g := range fig9 {
		p := got9[i]
		if p.bench != "dmc" || p.cores != g.cores || p.policy != g.policy {
			t.Fatalf("Fig. 9 point %d is %s/%d/%s, want dmc/%d/%s", i, p.bench, p.cores, p.policy, g.cores, g.policy)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"time", p.time, math.Float64frombits(g.time)},
			{"energy", p.energy, math.Float64frombits(g.energy)},
			{"norm time", p.normTime, math.Float64frombits(g.normTime)},
			{"norm energy", p.normEnergy, math.Float64frombits(g.normEnergy)},
		} {
			if !sameFloat(f.got, f.want) {
				t.Errorf("Fig. 9 %d/%s %s: %#x, want %#x", g.cores, g.policy, f.name,
					math.Float64bits(f.got), math.Float64bits(f.want))
			}
		}
	}
}

// recordBits is one seed-averaged record as the ablation and
// memory-bound tables pin it: makespan and energy as math.Float64bits.
type recordBits struct {
	bench, policy string
	time, energy  uint64
}

// TestAblationAndMemBoundGolden pins every record of the search and
// CC-formula ablations, the package-coupling ablation and the
// memory-bound comparison at seeds {1, 2, 3}: makespan and energy as
// they came out of the drivers that ran each EEWA variant as a
// hand-configured policy, before the variants became policy names and
// the drivers grid queries. Only a deliberate model or policy change may
// update the tables.
func TestAblationAndMemBoundGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full ablation sweeps in -short mode")
	}
	search := []recordBits{
		{"bwc", "eewa", 0x4000d42dbd89dd33, 0x4083a28d963a3bfc},
		{"bwc", "eewa-exhaustive", 0x4000d42dbd89dd33, 0x4083a28d963a3bfc},
		{"bwc", "eewa-greedy", 0x400114246a8b4fe9, 0x40841d6393461ae9},
		{"bzip2", "eewa", 0x4001b21f3d1f712b, 0x408505c17a845397},
		{"bzip2", "eewa-exhaustive", 0x4001b21f3d1f712b, 0x408505c17a845397},
		{"bzip2", "eewa-greedy", 0x4001b21f3d1f712b, 0x408505c17a845397},
		{"dmc", "eewa", 0x3ffc455991d8a640, 0x407ff0671548e457},
		{"dmc", "eewa-exhaustive", 0x3ffc455991d8a640, 0x407ff0671548e457},
		{"dmc", "eewa-greedy", 0x3ffc455991d8a640, 0x407ff0671548e457},
		{"je", "eewa", 0x3ffe6f824546ff90, 0x4082914de44a49b0},
		{"je", "eewa-exhaustive", 0x3ffe6f824546ff90, 0x4082914de44a49b0},
		{"je", "eewa-greedy", 0x40002b91912253bc, 0x40839058b108bbcd},
		{"lzw", "eewa", 0x3ffe3a498a34cf5d, 0x4081ea6f53d0eb0f},
		{"lzw", "eewa-exhaustive", 0x3ffe3a498a34cf5d, 0x4081ea6f53d0eb0f},
		{"lzw", "eewa-greedy", 0x3ffe3a498a34cf5d, 0x4081ea6f53d0eb0f},
		{"md5", "eewa", 0x3ff678f5f32a7a30, 0x407808462ffa88a3},
		{"md5", "eewa-exhaustive", 0x3ff5d411a5a378a0, 0x4077d73a8ca598cd},
		{"md5", "eewa-greedy", 0x3ff678f5f32a7a30, 0x407808462ffa88a3},
		{"sha1", "eewa", 0x3ffc7609a51d930b, 0x407b030a0d995620},
		{"sha1", "eewa-exhaustive", 0x3ffc7116a63bb919, 0x407d292032c76e2d},
		{"sha1", "eewa-greedy", 0x3ffc7609a51d930b, 0x407b030a0d995620},
	}
	granularity := []recordBits{
		{"bwc", "eewa", 0x4000d42dbd89dd33, 0x4083a28d963a3bfc},
		{"bwc", "eewa-divisible", 0x4004abf345b22c3b, 0x40865b0e36fb2b8b},
		{"bzip2", "eewa", 0x4001b21f3d1f712b, 0x408505c17a845397},
		{"bzip2", "eewa-divisible", 0x4001b21f3d1f712b, 0x408505c17a845397},
		{"dmc", "eewa", 0x3ffc455991d8a640, 0x407ff0671548e457},
		{"dmc", "eewa-divisible", 0x3ffc35fbe2e82310, 0x407fbf28acf1353b},
		{"je", "eewa", 0x3ffe6f824546ff90, 0x4082914de44a49b0},
		{"je", "eewa-divisible", 0x4000b2014c285159, 0x408373cf00adbad9},
		{"lzw", "eewa", 0x3ffe3a498a34cf5d, 0x4081ea6f53d0eb0f},
		{"lzw", "eewa-divisible", 0x4005d6de47df4fd9, 0x4086fa5987493ec5},
		{"md5", "eewa", 0x3ff678f5f32a7a30, 0x407808462ffa88a3},
		{"md5", "eewa-divisible", 0x3ffb6401222da141, 0x407a9a623600d010},
		{"sha1", "eewa", 0x3ffc7609a51d930b, 0x407b030a0d995620},
		{"sha1", "eewa-divisible", 0x4009ba139c3f78ec, 0x4085305d5cbc85d1},
	}
	// Per benchmark: the Opteron's coupled voltage planes, then
	// per-core planes.
	packages := []recordBits{
		{"bwc", "eewa", 0x4000d42dbd89dd33, 0x4083a28d963a3bfc},
		{"bwc", "eewa", 0x4000d42dbd89dd33, 0x408382a1b7949aac}, // per-core planes
		{"bzip2", "eewa", 0x4001b21f3d1f712b, 0x408505c17a845397},
		{"bzip2", "eewa", 0x4001b21f3d1f712b, 0x4084fc4245df5d68}, // per-core planes
		{"dmc", "eewa", 0x3ffc455991d8a640, 0x407ff0671548e457},
		{"dmc", "eewa", 0x3ffc455991d8a640, 0x407fcac50dfef94b}, // per-core planes
		{"je", "eewa", 0x3ffe6f824546ff90, 0x4082914de44a49b0},
		{"je", "eewa", 0x3ffe6f824546ff90, 0x408273e86c2a185f}, // per-core planes
		{"lzw", "eewa", 0x3ffe3a498a34cf5d, 0x4081ea6f53d0eb0f},
		{"lzw", "eewa", 0x3ffe3a498a34cf5d, 0x4081e17a34b78be5}, // per-core planes
		{"md5", "eewa", 0x3ff678f5f32a7a30, 0x407808462ffa88a3},
		{"md5", "eewa", 0x3ff678f5f32a7a30, 0x4077cf0d76b760c3}, // per-core planes
		{"sha1", "eewa", 0x3ffc7609a51d930b, 0x407b030a0d995620},
		{"sha1", "eewa", 0x3ffc7609a51d930b, 0x407a72b67a24a24d}, // per-core planes
	}
	memBound := []recordBits{
		{"membound", "cilk", 0x3ffaaa2ef7360623, 0x4081ea578e184c37},
		{"membound", "eewa", 0x3ffaac06d32a8e20, 0x407ed0199b7e8fec},
		{"membound", "eewa-memaware", 0x3ff806277d128928, 0x407764f62c7a2880},
	}
	seeds := []uint64{1, 2, 3}
	for _, d := range []struct {
		name string
		run  func([]uint64) ([]sweep.Record, error)
		want []recordBits
	}{
		{"search ablation", AblationSearch, search},
		{"granularity ablation", AblationGranularity, granularity},
		{"package ablation", AblationPackages, packages},
		{"memory-bound comparison", MemBound, memBound},
	} {
		recs, err := d.run(seeds)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(d.want) {
			t.Fatalf("%s: got %d records, want %d", d.name, len(recs), len(d.want))
		}
		for i, w := range d.want {
			r := recs[i]
			if r.Benchmark != w.bench || r.Policy != w.policy {
				t.Fatalf("%s record %d is %s/%s, want %s/%s", d.name, i, r.Benchmark, r.Policy, w.bench, w.policy)
			}
			if !sameFloat(r.Makespan, math.Float64frombits(w.time)) || !sameFloat(r.Energy, math.Float64frombits(w.energy)) {
				t.Errorf("%s %s/%s (record %d): makespan %#x energy %#x, want %#x %#x", d.name, w.bench, w.policy, i,
					math.Float64bits(r.Makespan), math.Float64bits(r.Energy), w.time, w.energy)
			}
		}
	}
}

// TestFig7Golden pins Fig. 7 at seeds {1, 2, 3} on the 16-core
// Opteron: per benchmark the frozen levels (EEWA's modal configuration)
// and Cilk's and WATS's makespan relative to EEWA's, as math.Float64bits.
// The Cilk bar runs random stealing on the frozen machine and WATS
// workload-aware stealing on it, so a change to how either policy plans
// a batch shows here. Only a deliberate model or policy change may
// update the table.
func TestFig7Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 7 sweep in -short mode")
	}
	want := []struct {
		bench      string
		levels     []int
		cilk, wats uint64
	}{
		{"bwc", []int{0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0x3ff4b554f5ad5017, 0x3ff071a511315554},
		{"bzip2", []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}, 0x3ff3312d0d6f1d10, 0x3ff030cf58de70f3},
		{"dmc", []int{0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0x3ff5270c7da8f758, 0x3ff3bc1b541507ec},
		{"je", []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1}, 0x3ff271ae52967973, 0x3ff2c0fad87fae00},
		{"lzw", []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}, 0x3ff54354feb48cee, 0x3ff0309529ee9706},
		{"md5", []int{0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2}, 0x40002ee8119426c2, 0x3ff1334c9dead087},
		{"sha1", []int{0, 0, 0, 0, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, 0x400a607a93fa2978, 0x3ff325e8ba360a74},
	}
	rows, err := Fig7(machine.Opteron16(), []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Benchmark != w.bench {
			t.Fatalf("row %d is %s, want %s", i, r.Benchmark, w.bench)
		}
		if !reflect.DeepEqual(r.Levels, w.levels) {
			t.Errorf("%s: frozen levels %v, want %v", w.bench, r.Levels, w.levels)
		}
		if !sameFloat(r.RelTime["Cilk"], math.Float64frombits(w.cilk)) || !sameFloat(r.RelTime["WATS"], math.Float64frombits(w.wats)) {
			t.Errorf("%s: Cilk %#x WATS %#x, want %#x %#x", w.bench,
				math.Float64bits(r.RelTime["Cilk"]), math.Float64bits(r.RelTime["WATS"]), w.cilk, w.wats)
		}
	}
}
