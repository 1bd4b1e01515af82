package experiments

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/cctable"
	"repro/internal/machine"
	"repro/internal/policy"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// claim is one row of the paper-claims scorecard: a numeric claim of
// the paper's evaluation (§IV), the paper's value or band, what the
// drivers measure at eewa-bench's default seeds, and the verdict.
type claim struct{ name, paper, measured, verdict string }

// The verdicts. A band claim is a match when the measured [min, max]
// lies inside the paper's band, shifted when it keeps the band's sign
// (its side of the reference value: 0 for a percentage, 1 for a time
// ratio) but leaves the band, and sign differs otherwise. A point claim
// is a match within the tolerance its row states. An ordering or exact
// claim either holds (match) or not (sign differs).
const (
	match       = "match"
	shifted     = "shifted"
	signDiffers = "sign differs"
)

// round is x at prec decimals, the precision a row prints, so a verdict
// agrees with the digits it stands beside.
func round(x float64, prec int) float64 {
	p := math.Pow(10, float64(prec))
	return math.Round(x*p) / p
}

// span formats the range [lo, hi] at prec decimals with its unit.
func span(lo, hi float64, prec int, unit string) string {
	if lo < 0 {
		return fmt.Sprintf("%.*f to %.*f%s", prec, lo, prec, hi, unit)
	}
	return fmt.Sprintf("%.*f–%.*f%s", prec, lo, prec, hi, unit)
}

// commas formats xs as "a, b, c".
func commas(xs []int) string {
	return strings.Trim(strings.Join(strings.Fields(fmt.Sprint(xs)), ", "), "[]")
}

// band is the row of a band claim: the measured values xs against the
// paper's band [plo, phi], whose sign is its side of ref.
func band(name, paper string, xs []float64, plo, phi, ref float64, prec int, unit string) claim {
	lo, hi := round(slices.Min(xs), prec), round(slices.Max(xs), prec)
	verdict := signDiffers
	switch {
	case lo >= plo && hi <= phi:
		verdict = match
	case plo > ref && lo > ref, phi < ref && hi < ref:
		verdict = shifted
	}
	return claim{name, paper, span(lo, hi, prec, unit), verdict}
}

// point is the row of a point claim in percent: the measured m against
// the paper's p ± tol points, signs taken as sides of 0. note follows
// the measured value.
func point(name string, m, p, tol float64, note string) claim {
	m = round(m, 1)
	verdict := signDiffers
	switch {
	case math.Abs(m-p) <= tol:
		verdict = match
	case p == 0 || (m > 0) == (p > 0):
		verdict = shifted
	}
	return claim{name, fmt.Sprintf("%.1f %% (± %g pt)", p, tol), fmt.Sprintf("%.1f %%%s", m, note), verdict}
}

// holds is the verdict of an ordering or exact claim.
func holds(ok bool) string {
	if ok {
		return match
	}
	return signDiffers
}

// scorecard computes one row per numeric claim of the paper's
// evaluation from the drivers, at eewa-bench's default seeds and in the
// workloads' generator order.
func scorecard(t *testing.T) []claim {
	t.Helper()
	seeds, cfg := sweep.DefaultSeeds, machine.Opteron16()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var rows []claim

	// Fig. 1: (b) takes the least time at the least energy.
	s := Fig1(1)
	best := 0
	for i, x := range s {
		if x.Time < s[best].Time || x.Time == s[best].Time && x.Energy < s[best].Energy {
			best = i
		}
	}
	rows = append(rows, claim{"Fig. 1: the optimum schedule", "(b): 2t, least energy",
		fmt.Sprintf("%s: %.0ft, %.1f J, %.0f %% below (a)", s[best].Name, s[best].Time, s[best].Energy, 100*(1-s[best].Energy/s[0].Energy)),
		holds(best == 1)})

	// Fig. 3: Algorithm 1 on the worked CC table.
	tab, err := cctable.FromCounts([][]int{{2, 3, 1, 1}, {4, 6, 2, 2}, {6, 9, 3, 3}, {8, 12, 4, 4}}, cfg.Freqs)
	check(err)
	tuple, ok := tab.SearchTuple(cfg.Cores)
	rows = append(rows, claim{"Fig. 3: Algorithm 1's k-tuple", "(1, 1, 2, 2)",
		"(" + commas(tuple) + ")",
		holds(ok && slices.Equal(tuple, []int{1, 1, 2, 2}))})

	// Fig. 6: per benchmark Cilk, Cilk-D, EEWA, normalized to Cilk.
	recs, err := Fig6(seeds)
	check(err)
	var eewaSave, cilkDSave, overCilkD, slowdown []float64
	ordered := 0
	fig6 := byBenchmark(recs)
	for _, row := range fig6 {
		cilkD, eewa := row[1], row[2]
		eewaSave = append(eewaSave, 100*(1-eewa.NormEnergy))
		cilkDSave = append(cilkDSave, 100*(1-cilkD.NormEnergy))
		overCilkD = append(overCilkD, 100*(1-eewa.NormEnergy/cilkD.NormEnergy))
		slowdown = append(slowdown, 100*(eewa.NormTime-1))
		if eewa.NormEnergy < cilkD.NormEnergy && cilkD.NormEnergy < 1 {
			ordered++
		}
	}
	rows = append(rows,
		band("Fig. 6: EEWA's energy saving vs Cilk", "8.7–29.8 %", eewaSave, 8.7, 29.8, 0, 1, " %"),
		band("Fig. 6: Cilk-D's energy saving vs Cilk", "6.7–12.8 %", cilkDSave, 6.7, 12.8, 0, 1, " %"),
		band("Fig. 6: EEWA's energy saving vs Cilk-D", "2.3–18.4 %", overCilkD, 2.3, 18.4, 0, 1, " %"),
		claim{"Fig. 6: energy EEWA < Cilk-D < Cilk", "every benchmark",
			fmt.Sprintf("%d of %d benchmarks", ordered, len(fig6)), holds(ordered == len(fig6))},
		band("Fig. 6: EEWA's slowdown vs Cilk", "0.8–3.7 %", slowdown, 0.8, 3.7, 0, 1, " %"))

	// Fig. 7: time on the frozen configurations, EEWA = 1.
	rows7, err := Fig7(cfg, seeds)
	check(err)
	var cilk, wats []float64
	for _, r := range rows7 {
		cilk, wats = append(cilk, r.RelTime["Cilk"]), append(wats, r.RelTime["WATS"])
	}
	rows = append(rows,
		band("Fig. 7: Cilk's time / EEWA's", "1.17–2.92×", cilk, 1.17, 2.92, 1, 2, "×"),
		band("Fig. 7: WATS's time / EEWA's", "1.05–1.24×", wats, 1.05, 1.24, 1, 2, "×"))

	// Fig. 8: SHA-1's census per batch under EEWA.
	res, err := Fig8(cfg, seeds[0])
	check(err)
	steady, lowHalf := true, true
	for _, c := range res.Census[2:] {
		steady = steady && slices.Equal(c, []int{5, 0, 0, 11})
		lowHalf = lowHalf && 2*c[len(c)-1] > cfg.Cores
	}
	var runs []string
	for i := 0; i < len(res.Census); {
		j := i + 1
		for j < len(res.Census) && slices.Equal(res.Census[j], res.Census[i]) {
			j++
		}
		batches := fmt.Sprint(i + 1)
		if j > i+1 {
			batches += fmt.Sprintf("–%d", j)
		}
		runs = append(runs, fmt.Sprintf("%s %v", batches, res.Census[i]))
		i = j
	}
	fig8 := signDiffers
	switch first := res.Census[0][0] == cfg.Cores; {
	case first && steady:
		fig8 = match
	case first && lowHalf:
		fig8 = shifted
	}
	rows = append(rows, claim{"Fig. 8: SHA-1's census by batch", "1 [16 0 0 0]; 3–10 [5 0 0 11]", strings.Join(runs, "; "), fig8})

	// Fig. 9: DMC at 4/8/12/16 cores, normalized to Cilk at each size.
	recs9, err := Fig9(seeds)
	check(err)
	eewaAt := map[int]sweep.Record{}
	var cores []int
	for _, r := range recs9 {
		if r.Policy == policy.IDEEWA {
			eewaAt[r.Cores] = r
			cores = append(cores, r.Cores)
		}
	}
	save := func(n int) float64 { return 100 * (1 - eewaAt[n].NormEnergy) }
	var growth []string
	grows := true
	for i, n := range cores {
		growth = append(growth, fmt.Sprintf("%.1f", save(n)))
		grows = grows && (i == 0 || save(n) > save(cores[i-1]))
	}
	rows = append(rows,
		point("Fig. 9: 4-core EEWA slowdown vs Cilk", 100*(eewaAt[4].NormTime-1), 0.3, 1, ""),
		point("Fig. 9: 4-core EEWA energy saving", save(4), 0, 1, ""),
		point("Fig. 9: 12-core EEWA slowdown vs Cilk", 100*(eewaAt[12].NormTime-1), 2.8, 1,
			fmt.Sprintf(" (norm t %.3f)", eewaAt[12].NormTime)),
		point("Fig. 9: 12-core EEWA energy saving", save(12), 23.8, 1, ""),
		claim{"Fig. 9: EEWA's saving grows with the core count", "rises from 4 to 16 cores",
			strings.Join(growth, ", ") + " % at " + commas(cores) + " cores", holds(grows)})

	// Table III: the adjuster's charged share of the run time.
	rows3, err := Table3(cfg, seeds[0])
	check(err)
	var pct []float64
	for _, r := range rows3 {
		pct = append(pct, r.Percent)
	}
	rows = append(rows, band("Table III: adjuster overhead, share of run time", "< 2 %", pct, 0, 2, 0, 2, " %"))

	// §IV-D: a memory-bound program keeps every core at F0.
	rs, err := runPolicy(cfg, workloads.MemoryBound(), func() policy.Policy { return policy.NewEEWA() }, seeds)
	check(err)
	detected, batches, allFast := 0, 0, 0
	for _, r := range rs {
		if r.MemoryBound {
			detected++
		}
		for _, c := range r.BatchCensus {
			batches++
			if c[0] == cfg.Cores {
				allFast++
			}
		}
	}
	rows = append(rows, claim{"§IV-D: memory-bound fallback to classic stealing", "every batch at F0",
		fmt.Sprintf("detected in %d of %d runs; %d of %d batches all at F0", detected, len(rs), allFast, batches),
		holds(detected == len(rs) && allFast == batches)})
	return rows
}

// renderScorecard formats the scorecard as the Markdown table README.md
// and EXPERIMENTS.md carry.
func renderScorecard(rows []claim) string {
	var b strings.Builder
	b.WriteString(scorecardHeader + "\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", r.name, r.paper, r.measured, r.verdict)
	}
	return b.String()
}

const scorecardHeader = "| claim | paper | measured | verdict |"

// The verdict rule on its edges: a band inside, on the paper's side
// and across the reference; a point within and beyond its tolerance.
func TestScorecardVerdicts(t *testing.T) {
	for _, c := range []struct {
		got, want string
	}{
		{band("", "", []float64{9, 29.8}, 8.7, 29.8, 0, 1, "").verdict, match},
		{band("", "", []float64{12.4, 37.7}, 8.7, 29.8, 0, 1, "").verdict, shifted},
		{band("", "", []float64{-14.1, -0.8}, 0.8, 3.7, 0, 1, "").verdict, signDiffers},
		{band("", "", []float64{-1, 2}, 0.8, 3.7, 0, 1, "").verdict, signDiffers},
		{band("", "", []float64{1.01, 1.23}, 1.05, 1.24, 1, 2, "").verdict, shifted},
		{band("", "", []float64{0.98, 1.2}, 1.05, 1.24, 1, 2, "").verdict, signDiffers},
		{point("", 0.34, 0.3, 1, "").verdict, match},
		{point("", 16, 23.8, 1, "").verdict, shifted},
		{point("", -12.2, 2.8, 1, "").verdict, signDiffers},
		{point("", 5, 0, 1, "").verdict, shifted},
	} {
		if c.got != c.want {
			t.Errorf("verdict %q, want %q", c.got, c.want)
		}
	}
}

// docCommand opens every fenced EXPERIMENTS.md block of program output.
const docCommand = "$ go run ./cmd/eewa-bench -exp "

// hostColumn matches a Table III row up to and including its host-µs
// field (with the padding its width sets), the one wall-clock reading
// among the generated numbers.
var hostColumn = regexp.MustCompile(`(?m)^(\w+ +[\d.]+ +[\d.]+) +[\d.]+`)

// readDoc reads a document at the repository root.
func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// fencedBlocks returns the content of every ``` fenced block of doc.
func fencedBlocks(doc string) []string {
	var blocks []string
	var cur []string
	in := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "```") && in:
			blocks = append(blocks, strings.Join(cur, "\n")+"\n")
			in = false
		case strings.HasPrefix(line, "```"):
			cur, in = nil, true
		case in:
			cur = append(cur, line)
		}
	}
	return blocks
}

// TestDocsMatchPrograms diffs the docs' generated parts against what
// the code prints. Every fenced EXPERIMENTS.md block whose first line
// is a `$ ` command is `go run ./cmd/eewa-bench -exp NAME`, and the rest
// of the block is that experiment's output at the default seeds (Table
// III's host-µs column aside); every experiment has such a block. The
// scorecard table in README.md and in EXPERIMENTS.md is the one
// scorecard computes. A failure prints the text the doc should hold.
func TestDocsMatchPrograms(t *testing.T) {
	exp := readDoc(t, "EXPERIMENTS.md")
	shown := map[string]bool{}
	for _, block := range fencedBlocks(exp) {
		cmd, body, _ := strings.Cut(block, "\n")
		if !strings.HasPrefix(cmd, "$ ") {
			continue // a command listing, not output
		}
		name, ok := strings.CutPrefix(cmd, docCommand)
		i := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.Name == name })
		if !ok || i < 0 {
			t.Errorf("EXPERIMENTS.md: block %q is not the output of %sNAME", cmd, docCommand)
			continue
		}
		shown[name] = true
		want, err := Experiments[i].Output(sweep.DefaultSeeds, false)
		if err != nil {
			t.Fatal(err)
		}
		got, exp := body, want
		if name == "table3" {
			got, exp = hostColumn.ReplaceAllString(got, "$1"), hostColumn.ReplaceAllString(exp, "$1")
		}
		if got != exp {
			t.Errorf("EXPERIMENTS.md: the %q block differs from what the program prints; want:\n%s", cmd, want)
		}
	}
	for _, e := range Experiments {
		if !shown[e.Name] {
			t.Errorf("EXPERIMENTS.md shows no %s%s block", docCommand, e.Name)
		}
	}

	card := renderScorecard(scorecard(t))
	for _, name := range []string{"README.md", "EXPERIMENTS.md"} {
		doc := readDoc(t, name)
		i := strings.Index(doc, scorecardHeader+"\n")
		if i < 0 {
			t.Errorf("%s has no scorecard table; want:\n%s", name, card)
			continue
		}
		table := doc[i:]
		if j := strings.Index(table, "\n\n"); j >= 0 {
			table = table[:j+1]
		}
		if table != card {
			t.Errorf("%s: the scorecard differs from the one the drivers compute; want:\n%s", name, card)
		}
	}
}
