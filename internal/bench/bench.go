// Package bench is the experiment harness that regenerates the paper's
// evaluation (§V): the per-project paths-over-time curves of Fig. 4, the
// speed-to-coverage and final-path-increase headline numbers of §V-B, and
// the vulnerability table (Table I).
//
// The paper's budget is 24 wall-clock hours per (project, fuzzer) pair,
// repeated 10 times. This harness scales the budget to a configurable
// number of target executions per repetition (DESIGN.md §2.4): both
// fuzzers pay one execution per generated seed, so execution count is the
// fair time axis.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/targets"
)

// Projects lists the six evaluated projects in the paper's Fig. 4 order.
func Projects() []string {
	return []string{"libmodbus", "IEC104", "libiec61850", "lib60870", "libiccp", "opendnp3"}
}

// Config parameterizes one experiment run.
type Config struct {
	// ExecBudget is the number of target executions per repetition —
	// the scaled stand-in for the paper's 24 hours.
	ExecBudget int
	// Reps is the number of repetitions averaged (the paper uses 10).
	Reps int
	// Checkpoints is the number of x-axis samples per curve.
	Checkpoints int
	// Seed bases the per-repetition seeds.
	Seed uint64
}

// DefaultConfig returns the Fig. 4 configuration cmd/benchfig4 runs by
// default: 20000 executions per repetition, 5 repetitions.
func DefaultConfig() Config {
	return Config{ExecBudget: 20000, Reps: 5, Checkpoints: 20, Seed: 1}
}

// Series is one averaged paths-over-executions curve.
type Series struct {
	X []int     // execution counts at each checkpoint
	Y []float64 // mean paths covered at each checkpoint
}

// Final returns the last y value (paths at budget end).
func (s Series) Final() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// ProjectResult is the Fig. 4 panel plus §V-B headline stats for one
// project.
type ProjectResult struct {
	Project string
	Peach   Series // baseline curve
	Star    Series // Peach* curve
	// IncreasePct is the relative final-path gain of Peach* over Peach
	// (the 8.35%-36.84% range of §V-B).
	IncreasePct float64
	// Speedup is how many times faster Peach* reached Peach's final
	// path count (the 1.2X-25X range of §V-B). It is +Inf-free: when
	// Peach* never reaches the level, it reports the ratio at budget
	// end (< 1 means slower).
	Speedup float64
}

// runOne executes a single campaign, sampling paths at each checkpoint.
func runOne(project string, strat core.Strategy, seed uint64, cfg Config) ([]int, []int, *core.Engine, error) {
	tgt, err := targets.New(project)
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := core.New(core.Config{
		Models:   tgt.Models(),
		Target:   tgt,
		Strategy: strat,
		Seed:     seed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	step := cfg.ExecBudget / cfg.Checkpoints
	if step < 1 {
		step = 1
	}
	var xs, ys []int
	for cp := 1; cp <= cfg.Checkpoints; cp++ {
		eng.Run(cp * step)
		xs = append(xs, cp*step)
		ys = append(ys, eng.Stats().Paths)
	}
	return xs, ys, eng, nil
}

// RunProject produces the Fig. 4 panel for one project.
func RunProject(project string, cfg Config) (ProjectResult, error) {
	res := ProjectResult{Project: project}
	sumPeach := make([]float64, cfg.Checkpoints)
	sumStar := make([]float64, cfg.Checkpoints)
	var xs []int
	for rep := 0; rep < cfg.Reps; rep++ {
		seed := cfg.Seed + uint64(rep)*7919
		x, yP, _, err := runOne(project, core.StrategyPeach, seed, cfg)
		if err != nil {
			return res, err
		}
		_, yS, _, err := runOne(project, core.StrategyPeachStar, seed, cfg)
		if err != nil {
			return res, err
		}
		xs = x
		for i := range yP {
			sumPeach[i] += float64(yP[i])
			sumStar[i] += float64(yS[i])
		}
	}
	res.Peach = Series{X: xs, Y: mean(sumPeach, cfg.Reps)}
	res.Star = Series{X: xs, Y: mean(sumStar, cfg.Reps)}
	res.IncreasePct = pctIncrease(res.Star.Final(), res.Peach.Final())
	res.Speedup = speedup(res.Star, res.Peach)
	return res, nil
}

func mean(sum []float64, n int) []float64 {
	out := make([]float64, len(sum))
	for i, v := range sum {
		out[i] = v / float64(n)
	}
	return out
}

func pctIncrease(star, peach float64) float64 {
	if peach == 0 {
		if star == 0 {
			return 0
		}
		return 100
	}
	return (star - peach) / peach * 100
}

// speedup reports execs(Peach to final level) / execs(Peach* to same
// level): how many times faster Peach* reached the baseline's final
// coverage (§V-B's 1.2X-25X).
func speedup(star, peach Series) float64 {
	level := peach.Final()
	if level == 0 {
		return 1
	}
	starExecs := execsToLevel(star, level)
	if starExecs == 0 {
		return 1
	}
	peachExecs := peach.X[len(peach.X)-1]
	return float64(peachExecs) / float64(starExecs)
}

// execsToLevel returns the first checkpoint at which the curve reaches the
// level, or 0 when it never does (caller treats that as no speedup).
func execsToLevel(s Series, level float64) int {
	for i, y := range s.Y {
		if y >= level {
			return s.X[i]
		}
	}
	return 0
}

// --- Table I ---

// VulnRow is one project's row of Table I.
type VulnRow struct {
	Project string
	// Counts per vulnerability type, keyed by the paper's names.
	Counts map[mem.FaultKind]int
	Total  int
	// Sites lists the deduplicated fault sites, for the detailed report.
	Sites []string
}

// HuntVulnerabilities runs Peach* campaigns against one project and
// returns its Table I row, aggregating the unique faults found across all
// repetitions — Table I reports everything the paper's evaluation exposed,
// not one campaign's haul. Projects without seeded bugs yield zero rows,
// matching the paper (only lib60870, libmodbus and libiec_iccp_mod appear
// in Table I).
func HuntVulnerabilities(project string, execBudget, reps int, seed uint64) (VulnRow, error) {
	row := VulnRow{Project: project, Counts: map[mem.FaultKind]int{}}
	type key struct {
		kind mem.FaultKind
		site string
	}
	seen := map[key]bool{}
	for rep := 0; rep < reps; rep++ {
		tgt, err := targets.New(project)
		if err != nil {
			return row, err
		}
		eng, err := core.New(core.Config{
			Models:   tgt.Models(),
			Target:   tgt,
			Strategy: core.StrategyPeachStar,
			Seed:     seed + uint64(rep)*104729,
		})
		if err != nil {
			return row, err
		}
		eng.Run(execBudget)
		for _, r := range eng.Crashes().Records() {
			k := key{r.Kind, r.Site}
			if seen[k] {
				continue
			}
			seen[k] = true
			row.Counts[r.Kind]++
			row.Total++
			row.Sites = append(row.Sites, fmt.Sprintf("%s: %s", r.Kind, r.Site))
		}
	}
	sort.Strings(row.Sites)
	return row, nil
}

// --- formatting ---

// FormatFig4Panel renders one project's curves as aligned text columns —
// the regenerated data behind one panel of Fig. 4.
func FormatFig4Panel(r ProjectResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.4 — %s: average paths covered (Peach vs Peach*)\n", r.Project)
	fmt.Fprintf(&b, "%10s %12s %12s\n", "execs", "Peach", "Peach*")
	for i := range r.Peach.X {
		fmt.Fprintf(&b, "%10d %12.1f %12.1f\n", r.Peach.X[i], r.Peach.Y[i], r.Star.Y[i])
	}
	fmt.Fprintf(&b, "final increase: %+.2f%%   speed to Peach-final coverage: %.2fX\n",
		r.IncreasePct, r.Speedup)
	return b.String()
}

// FormatSummary renders the §V-B headline table across projects.
func FormatSummary(results []ProjectResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %12s %9s\n", "project", "Peach", "Peach*", "increase", "speed")
	var sumInc, sumSpeed float64
	for _, r := range results {
		fmt.Fprintf(&b, "%-14s %10.1f %10.1f %+11.2f%% %8.2fX\n",
			r.Project, r.Peach.Final(), r.Star.Final(), r.IncreasePct, r.Speedup)
		sumInc += r.IncreasePct
		sumSpeed += r.Speedup
	}
	if len(results) > 0 {
		fmt.Fprintf(&b, "%-14s %10s %10s %+11.2f%% %8.2fX\n", "average", "", "",
			sumInc/float64(len(results)), sumSpeed/float64(len(results)))
	}
	return b.String()
}

// FormatTable1 renders the vulnerability table in the paper's layout.
func FormatTable1(rows []VulnRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: Vulnerabilities Exposed by Peach*\n")
	fmt.Fprintf(&b, "%-14s %-24s %7s\n", "Project", "Vulnerability Type", "Number")
	total := 0
	for _, row := range rows {
		if row.Total == 0 {
			continue
		}
		kinds := make([]string, 0, len(row.Counts))
		for k := range row.Counts {
			kinds = append(kinds, string(k))
		}
		sort.Strings(kinds)
		first := true
		for _, k := range kinds {
			name := row.Project
			if !first {
				name = ""
			}
			fmt.Fprintf(&b, "%-14s %-24s %7d\n", name, k, row.Counts[mem.FaultKind(k)])
			first = false
		}
		total += row.Total
	}
	fmt.Fprintf(&b, "%-14s %-24s %7d\n", "total", "", total)
	return b.String()
}
