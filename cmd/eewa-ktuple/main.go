// Command eewa-ktuple demonstrates the workload-aware frequency
// adjuster in isolation: it builds the CC table for a workload
// snapshot, runs Algorithm 1, and prints the chosen k-tuple and
// c-groups. With no flags it reproduces the paper's Fig. 3 worked
// example.
//
// Usage:
//
//	eewa-ktuple                      # the Fig. 3 example
//	eewa-ktuple -bench sha1 -T 0.2   # a Table II benchmark's profile
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"slices"

	"repro/internal/cctable"
	"repro/internal/cgroup"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eewa-ktuple: ")
	benchName := flag.String("bench", "", "Table II benchmark to take class profiles from (empty = Fig. 3 example)")
	T := flag.Float64("T", 0.2, "ideal iteration time in seconds (with -bench)")
	cores := flag.Int("cores", 16, "machine core count")
	flag.Parse()

	ladder := machine.Opteron16().Freqs

	if *benchName == "" {
		fig3(ladder, *cores)
		return
	}

	b, err := workloads.ByName(*benchName)
	if err != nil {
		log.Fatal(err)
	}
	// Build the class profile the adjuster would see after one batch.
	var classes []profile.Class
	for _, s := range b.Specs {
		classes = append(classes, profile.Class{Name: s.Name, Count: s.Count, AvgWork: s.MeanWork})
	}
	// profile.Classes() order: descending average workload, first seen
	// first on a tie.
	slices.SortStableFunc(classes, func(a, b profile.Class) int { return cmp.Compare(b.AvgWork, a.AvgWork) })

	adj, err := core.NewAdjuster(ladder, *cores)
	if err != nil {
		log.Fatal(err)
	}
	asn, ok := adj.Adjust(classes, *T)
	fmt.Printf("benchmark %s, T = %.3fs, %d cores\n\n", b.Name, *T, *cores)
	fmt.Println("CC table (granularity-aware):")
	fmt.Print(adj.LastTable.String())
	if !ok {
		fmt.Println("\nno feasible tuple below all-F0: every core stays at the highest frequency")
		return
	}
	printDecision(adj.LastTable, adj.LastTuple, asn)
	fmt.Printf("search: %d select attempts, %v host time\n", adj.LastSteps, adj.HostTime)
}

func fig3(ladder machine.FreqLadder, cores int) {
	tab, err := cctable.FromCounts([][]int{
		{2, 3, 1, 1},
		{4, 6, 2, 2},
		{6, 9, 3, 3},
		{8, 12, 4, 4},
	}, ladder)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig. 3 example: 4 task classes, 4 frequencies, %d cores\n\n", cores)
	fmt.Print(tab.String())
	tuple, ok := tab.SearchTuple(cores)
	if !ok {
		fmt.Println("\nno feasible tuple")
		return
	}
	asn, err := cgroup.FromTuple(tuple, tab, cores)
	if err != nil {
		log.Fatal(err)
	}
	printDecision(tab, tuple, asn)
	fmt.Printf("search: %d select attempts\n", tab.LastSearchSteps)
}

func printDecision(tab *cctable.Table, tuple []int, asn *cgroup.Assignment) {
	fmt.Printf("\nk-tuple: %v  (cores needed: %d)\n", tuple, tab.CoresNeeded(tuple))
	fmt.Println("c-groups:")
	for gi, g := range asn.Groups {
		fmt.Printf("  G%d: %d cores at F%d (%.1f GHz): cores %v\n",
			gi, len(g.Cores), g.Level, tab.Ladder[g.Level], g.Cores)
	}
	fmt.Println("class allocation:")
	for i, c := range tab.Classes {
		fmt.Printf("  %-12s -> G%d (F%d)\n", c.Name, asn.GroupOfClass(c.Name), tuple[i])
	}
	fmt.Println("preference lists:")
	for gi := range asn.Groups {
		fmt.Printf("  G%d: %v\n", gi, cgroup.PreferenceList(gi, asn.U()))
	}
}
