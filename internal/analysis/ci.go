package analysis

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// Confidence-interval views of the paper's tables, built from one table per
// sweep seed: every cell becomes mean ± 95 % CI over the seeds. The paper
// reports point estimates from a single 18-month run; a multi-seed sweep
// quantifies how tight those numbers actually are at a given duration.

// DependabilityCI is a Table 4 column with confidence intervals.
type DependabilityCI struct {
	Scenario string
	Seeds    int

	MTTF, MTTR   stats.Estimate
	Availability stats.Estimate
	CoveragePct  stats.Estimate
	MaskingPct   stats.Estimate
	Failures     stats.Estimate
}

// BuildDependabilityCI summarizes per-seed columns (all from the same
// scenario).
func BuildDependabilityCI(cols []*Dependability) *DependabilityCI {
	d := &DependabilityCI{Seeds: len(cols)}
	var mttf, mttr, avail, cover, mask, fails stats.Summary
	for _, c := range cols {
		d.Scenario = c.Scenario
		mttf.Add(c.MTTF)
		mttr.Add(c.MTTR)
		avail.Add(c.Availability)
		cover.Add(c.CoveragePct)
		mask.Add(c.MaskingPct)
		fails.Add(float64(c.Failures))
	}
	d.MTTF, d.MTTR = mttf.CI95(), mttr.CI95()
	d.Availability = avail.CI95()
	d.CoveragePct, d.MaskingPct = cover.CI95(), mask.CI95()
	d.Failures = fails.CI95()
	return d
}

// Render formats the column, one metric per line.
func (d *DependabilityCI) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d seeds)\n", d.Scenario, d.Seeds)
	fmt.Fprintf(&b, "  MTTF (s)       %s\n", d.MTTF.Format("%.2f"))
	fmt.Fprintf(&b, "  MTTR (s)       %s\n", d.MTTR.Format("%.2f"))
	fmt.Fprintf(&b, "  Availability   %s\n", d.Availability.Format("%.4f"))
	fmt.Fprintf(&b, "  %% Coverage     %s\n", d.CoveragePct.Format("%.2f"))
	fmt.Fprintf(&b, "  %% Masking      %s\n", d.MaskingPct.Format("%.2f"))
	fmt.Fprintf(&b, "  failures       %s\n", d.Failures.Format("%.0f"))
	return b.String()
}

// Table2CI is the error-failure relationship table with CIs on the combined
// (local + NAP) shares.
type Table2CI struct {
	Seeds int
	// Rows: per failure, per source, CI of the combined row share (%).
	Rows map[core.UserFailure]map[core.SysSource]stats.Estimate
	// Tot: CI of each failure's share of all occurrences (%).
	Tot map[core.UserFailure]stats.Estimate
	// SourceTotals: CI of each source's combined share of all evidence (%).
	SourceTotals map[core.SysSource]stats.Estimate
}

// BuildTable2CI summarizes per-seed Table 2 instances.
func BuildTable2CI(tables []*Table2) *Table2CI {
	out := &Table2CI{
		Seeds:        len(tables),
		Rows:         make(map[core.UserFailure]map[core.SysSource]stats.Estimate),
		Tot:          make(map[core.UserFailure]stats.Estimate),
		SourceTotals: make(map[core.SysSource]stats.Estimate),
	}
	for _, f := range core.UserFailures() {
		cells := make(map[core.SysSource]stats.Estimate)
		for _, src := range core.SysSources() {
			var s stats.Summary
			for _, t := range tables {
				s.Add(t.RowShare(f, src))
			}
			cells[src] = s.CI95()
		}
		out.Rows[f] = cells
		var tot stats.Summary
		for _, t := range tables {
			tot.Add(t.Tot[f])
		}
		out.Tot[f] = tot.CI95()
	}
	for _, src := range core.SysSources() {
		var s stats.Summary
		for _, t := range tables {
			s.Add(t.SourceShare(src))
		}
		out.SourceTotals[src] = s.CI95()
	}
	return out
}

// Render formats the CI table in the paper's layout (combined loc+NAP
// shares).
func (t *Table2CI) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s", fmt.Sprintf("User Level Failure (%d seeds)", t.Seeds))
	for _, src := range core.SysSources() {
		fmt.Fprintf(&b, "%16s", src)
	}
	fmt.Fprintf(&b, "%14s\n", "TOT")
	for _, f := range core.UserFailures() {
		fmt.Fprintf(&b, "%-26s", f)
		for _, src := range core.SysSources() {
			fmt.Fprintf(&b, "%16s", t.Rows[f][src].Format("%.1f"))
		}
		fmt.Fprintf(&b, "%14s\n", t.Tot[f].Format("%.1f"))
	}
	fmt.Fprintf(&b, "%-26s", "Total")
	for _, src := range core.SysSources() {
		fmt.Fprintf(&b, "%16s", t.SourceTotals[src].Format("%.1f"))
	}
	b.WriteString("\n")
	return b.String()
}

// Table3CI is the SIRA effectiveness table with CIs.
type Table3CI struct {
	Seeds    int
	Rows     map[core.UserFailure][core.NumRecoveryActions]stats.Estimate
	TotalRow [core.NumRecoveryActions]stats.Estimate
}

// BuildTable3CI summarizes per-seed Table 3 instances.
func BuildTable3CI(tables []*Table3) *Table3CI {
	out := &Table3CI{
		Seeds: len(tables),
		Rows:  make(map[core.UserFailure][core.NumRecoveryActions]stats.Estimate),
	}
	for _, f := range core.UserFailures() {
		var row [core.NumRecoveryActions]stats.Estimate
		for i := 0; i < core.NumRecoveryActions; i++ {
			var s stats.Summary
			for _, t := range tables {
				s.Add(t.Rows[f][i])
			}
			row[i] = s.CI95()
		}
		out.Rows[f] = row
	}
	for i := 0; i < core.NumRecoveryActions; i++ {
		var s stats.Summary
		for _, t := range tables {
			s.Add(t.TotalRow[i])
		}
		out.TotalRow[i] = s.CI95()
	}
	return out
}

// Render formats the CI table in the paper's layout.
func (t *Table3CI) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s", fmt.Sprintf("User Level Failure (%d seeds)", t.Seeds))
	for _, a := range core.RecoveryActions() {
		fmt.Fprintf(&b, "%22s", a)
	}
	b.WriteString("\n")
	for _, f := range core.UserFailures() {
		if f == core.UFDataMismatch {
			fmt.Fprintf(&b, "%-26s%s\n", f, "  (no recovery defined)")
			continue
		}
		fmt.Fprintf(&b, "%-26s", f)
		row := t.Rows[f]
		for i := range core.RecoveryActions() {
			fmt.Fprintf(&b, "%22s", row[i].Format("%.1f"))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-26s", "Total")
	for i := range core.RecoveryActions() {
		fmt.Fprintf(&b, "%22s", t.TotalRow[i].Format("%.1f"))
	}
	b.WriteString("\n")
	return b.String()
}

// TaxonomyCI summarizes the taxonomy/survival plane over sweep seeds:
// per-phase failure counts, the dynamic-availability share, and the mean
// failure interarrival, each as mean ± 95 % CI (PR 10).
type TaxonomyCI struct {
	Seeds int
	// Failures estimates the per-seed unmasked failure count per phase.
	Failures map[core.FailurePhase]stats.Estimate
	// DynamicPct estimates the dynamic-availability share of unmasked
	// failures (%).
	DynamicPct stats.Estimate
	// MeanUptime estimates the mean failure interarrival in seconds.
	MeanUptime stats.Estimate
}

// BuildTaxonomyCI summarizes per-seed taxonomy/survival accumulators
// (slices aligned by seed).
func BuildTaxonomyCI(taxes []*TaxonomyAccum, survs []*SurvivalAccum) *TaxonomyCI {
	out := &TaxonomyCI{Seeds: len(taxes),
		Failures: make(map[core.FailurePhase]stats.Estimate)}
	for _, p := range core.FailurePhases() {
		var s stats.Summary
		for _, t := range taxes {
			s.Add(float64(t.Failures(p)))
		}
		out.Failures[p] = s.CI95()
	}
	var dyn, up stats.Summary
	for i, t := range taxes {
		total, dynamic := 0, 0
		for p := range t.Counts {
			for v, n := range t.Counts[p] {
				total += n
				if core.TransienceVerdict(v) == core.VerdictDynamicAvailability {
					dynamic += n
				}
			}
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(dynamic) / float64(total)
		}
		dyn.Add(pct)
		up.Add(survs[i].MeanUptimeSeconds())
	}
	out.DynamicPct = dyn.CI95()
	out.MeanUptime = up.CI95()
	return out
}

// Render formats the taxonomy CI summary, one metric per line.
func (t *TaxonomyCI) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "taxonomy (%d seeds)\n", t.Seeds)
	for _, p := range core.FailurePhases() {
		fmt.Fprintf(&b, "  %-10s failures  %s\n", p, t.Failures[p].Format("%.1f"))
	}
	fmt.Fprintf(&b, "  dynamic-availability share  %s %%\n", t.DynamicPct.Format("%.1f"))
	fmt.Fprintf(&b, "  mean failure interarrival   %s s\n", t.MeanUptime.Format("%.1f"))
	return b.String()
}

// ScalarsCI is the §6 scalar findings with CIs.
type ScalarsCI struct {
	Seeds                int
	RandomSharePct       stats.Estimate
	IdleBeforeFailedMean stats.Estimate
	IdleBeforeCleanMean  stats.Estimate
	DistanceShares       map[float64]stats.Estimate
	UserReports          stats.Estimate
	SystemEntries        stats.Estimate
}

// BuildScalarsCI summarizes per-seed scalar findings.
func BuildScalarsCI(all []*Scalars) *ScalarsCI {
	out := &ScalarsCI{Seeds: len(all), DistanceShares: make(map[float64]stats.Estimate)}
	var share, failed, clean, users, sys stats.Summary
	dists := make(map[float64]*stats.Summary)
	for _, s := range all {
		share.Add(s.RandomSharePct)
		failed.Add(s.IdleBeforeFailedMean)
		clean.Add(s.IdleBeforeCleanMean)
		users.Add(float64(s.UserReports))
		sys.Add(float64(s.SystemEntries))
		for d := range s.DistanceShares {
			if dists[d] == nil {
				dists[d] = &stats.Summary{}
			}
		}
	}
	// Every seed votes on every distance — a seed that never saw a distance
	// contributes a 0 % share, not an absence (which would bias the mean up
	// and shrink N for the rarest distances).
	for d, sum := range dists {
		for _, s := range all {
			sum.Add(s.DistanceShares[d])
		}
	}
	out.RandomSharePct = share.CI95()
	out.IdleBeforeFailedMean, out.IdleBeforeCleanMean = failed.CI95(), clean.CI95()
	out.UserReports, out.SystemEntries = users.CI95(), sys.CI95()
	for d, s := range dists {
		out.DistanceShares[d] = s.CI95()
	}
	return out
}
