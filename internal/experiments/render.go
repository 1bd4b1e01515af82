package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cgroup"
	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/sweep"
)

// RenderFig1 formats the four-schedule example as an aligned table.
func RenderFig1(schedules []Fig1Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 — four schedules of γ0 (2t) and γ1 (t) on a DVFS dual-core (t = 1 s)\n")
	fmt.Fprintf(&b, "%-20s %12s %12s\n", "schedule", "time (t)", "energy (J)")
	for _, s := range schedules {
		fmt.Fprintf(&b, "%-20s %12.2f %12.1f\n", s.Name, s.Time, s.Energy)
	}
	return b.String()
}

// RenderFig3 formats Algorithm 1's decision on the Fig. 3 table: the
// table, the k-tuple, the c-groups, where each class goes and each
// group's steal order.
func RenderFig3(r *Fig3Result) string {
	var b strings.Builder
	tab := r.Table
	fmt.Fprintf(&b, "Fig. 3 — worked k-tuple example: %d task classes, %d frequencies, %d cores\n\n", tab.K(), tab.R(), r.Cores)
	b.WriteString(tab.String())
	fmt.Fprintf(&b, "\nk-tuple: %v  (cores needed: %d)\n", r.Tuple, tab.CoresNeeded(r.Tuple))
	b.WriteString("c-groups:\n")
	for gi, g := range r.Groups.Groups {
		fmt.Fprintf(&b, "  G%d: %d cores at F%d (%.1f GHz): cores %v\n", gi, len(g.Cores), g.Level, tab.Ladder[g.Level], g.Cores)
	}
	b.WriteString("class allocation:\n")
	for i, c := range tab.Classes {
		fmt.Fprintf(&b, "  %-12s -> G%d (F%d)\n", c.Name, r.Groups.GroupOfClass(c.Name), r.Tuple[i])
	}
	b.WriteString("preference lists:\n")
	for gi := range r.Groups.Groups {
		fmt.Fprintf(&b, "  G%d: %v\n", gi, cgroup.PreferenceList(gi, r.Groups.U()))
	}
	fmt.Fprintf(&b, "search: %d select attempts\n", tab.LastSearchSteps)
	return b.String()
}

// label is a policy identifier's display name (Policy.Name).
func label(id string) string {
	p, err := policy.New(id, machine.Opteron16())
	if err != nil {
		return id
	}
	return p.Name()
}

// byBenchmark cuts records in sweep.Aggregate order into one row per
// benchmark, its policies in record order.
func byBenchmark(recs []sweep.Record) [][]sweep.Record {
	var rows [][]sweep.Record
	for i, r := range recs {
		if i == 0 || r.Benchmark != recs[i-1].Benchmark {
			rows = append(rows, nil)
		}
		rows[len(rows)-1] = append(rows[len(rows)-1], r)
	}
	return rows
}

// RenderFig6 formats the normalized time/energy records, one line per
// benchmark.
func RenderFig6(recs []sweep.Record) string {
	rows := byBenchmark(recs)
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 — normalized execution time and energy (Cilk = 1.00), 16 cores\n")
	fmt.Fprintf(&b, "%-8s", "bench")
	if len(rows) > 0 {
		for _, r := range rows[0] {
			fmt.Fprintf(&b, " %10s", label(r.Policy)+" t")
		}
		for _, r := range rows[0] {
			fmt.Fprintf(&b, " %10s", label(r.Policy)+" E")
		}
	}
	b.WriteString("\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-8s", row[0].Benchmark)
		for _, r := range row {
			fmt.Fprintf(&b, " %10.3f", r.NormTime)
		}
		for _, r := range row {
			fmt.Fprintf(&b, " %10.3f", r.NormEnergy)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFig7 formats the asymmetric-machine comparison.
func RenderFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — execution time on frozen asymmetric configs (EEWA = 1.00)\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s   %s\n", "bench", "Cilk", "WATS", "EEWA", "frozen config (cores/level)")
	for _, r := range rows {
		census := map[int]int{}
		for _, l := range r.Levels {
			census[l]++
		}
		var cfg []string
		for lvl := 0; lvl < 8; lvl++ {
			if census[lvl] > 0 {
				cfg = append(cfg, fmt.Sprintf("%d@F%d", census[lvl], lvl))
			}
		}
		fmt.Fprintf(&b, "%-8s %10.2f %10.2f %10.2f   %s\n",
			r.Benchmark, r.RelTime["Cilk"], r.RelTime["WATS"], r.RelTime["EEWA"], strings.Join(cfg, " "))
	}
	return b.String()
}

// RenderFig8 formats the per-batch frequency census.
func RenderFig8(res *Fig8Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 8 — cores per frequency in the %d batches of SHA-1 (EEWA)\n", len(res.Census))
	fmt.Fprintf(&b, "%-8s", "batch")
	for _, f := range res.Freqs {
		fmt.Fprintf(&b, " %8.1fGHz", f)
	}
	b.WriteString("\n")
	for bi, c := range res.Census {
		fmt.Fprintf(&b, "%-8d", bi+1)
		for _, n := range c {
			fmt.Fprintf(&b, " %11d", n)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// RenderFig9 formats the scalability table.
func RenderFig9(recs []sweep.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — DMC on 4/8/12/16 cores (normalized to Cilk at each size)\n")
	fmt.Fprintf(&b, "%-6s %-8s %12s %12s %10s %10s\n", "cores", "policy", "time (s)", "energy (J)", "norm t", "norm E")
	for _, r := range recs {
		fmt.Fprintf(&b, "%-6d %-8s %12.4f %12.1f %10.3f %10.3f\n",
			r.Cores, label(r.Policy), r.Makespan, r.Energy, r.NormTime, r.NormEnergy)
	}
	return b.String()
}

// RenderTable3 formats the overhead table.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — adjuster overhead under EEWA\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %16s %10s\n", "bench", "exec (ms)", "sim ovh (ms)", "host ovh (µs)", "percent")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %14.1f %14.1f %16.1f %9.2f%%\n",
			r.Benchmark, r.ExecTime*1e3, r.SimOverhead*1e3,
			float64(r.HostOverhead.Microseconds()), r.Percent)
	}
	return b.String()
}

// RenderMemBound formats the memory-bound extension comparison (the
// records of MemBound).
func RenderMemBound(recs []sweep.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Memory-bound application (§IV-D): fallback vs frequency-response extension\n")
	fmt.Fprintf(&b, "%-24s %12s %12s %10s\n", "discipline", "time (s)", "energy (J)", "saving")
	names := map[string]string{"cilk": "Cilk", "eewa": "EEWA (paper fallback)", "eewa-memaware": "EEWA (MemAware ext.)"}
	for _, r := range recs {
		fmt.Fprintf(&b, "%-24s %12.4f %12.1f %9.1f%%\n", names[r.Policy], r.Makespan, r.Energy, 100*(1-r.NormEnergy))
	}
	return b.String()
}

// RenderAblation formats an ablation comparison: one line per
// benchmark, its records in order under the column names.
func RenderAblation(title string, recs []sweep.Record, columns []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s", "bench")
	for _, c := range columns {
		fmt.Fprintf(&b, " %12s", c+" E(J)")
	}
	for _, c := range columns {
		fmt.Fprintf(&b, " %12s", c+" t(s)")
	}
	b.WriteString("\n")
	for _, row := range byBenchmark(recs) {
		fmt.Fprintf(&b, "%-8s", row[0].Benchmark)
		for _, r := range row {
			fmt.Fprintf(&b, " %12.1f", r.Energy)
		}
		for _, r := range row {
			fmt.Fprintf(&b, " %12.4f", r.Makespan)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// bar renders a horizontal bar of the given relative length (1.0 =
// width characters), annotated with the value.
func bar(value, scale float64, width int, glyph byte) string {
	n := int(value / scale * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat(string(glyph), n)
}

// RenderFig6Chart draws the normalized-energy comparison as grouped
// horizontal bars — the visual shape of the paper's Fig. 6.
func RenderFig6Chart(recs []sweep.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 (chart) — normalized energy, bar width = Cilk baseline\n")
	const width = 50
	for _, row := range byBenchmark(recs) {
		fmt.Fprintf(&b, "%s\n", row[0].Benchmark)
		for _, r := range row {
			fmt.Fprintf(&b, "  %-7s |%-*s| %.3f\n", label(r.Policy), width, bar(r.NormEnergy, 1.0, width, '#'), r.NormEnergy)
		}
	}
	return b.String()
}

// RenderFig9Chart draws the scalability sweep: one bar row per
// (cores, policy) of normalized energy.
func RenderFig9Chart(recs []sweep.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 (chart) — DMC normalized energy by machine size\n")
	const width = 50
	for _, r := range recs {
		fmt.Fprintf(&b, "%2d cores %-7s |%-*s| %.3f\n",
			r.Cores, label(r.Policy), width, bar(r.NormEnergy, 1.0, width, '#'), r.NormEnergy)
	}
	return b.String()
}
