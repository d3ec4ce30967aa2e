package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Dependability is one column of the paper's Table 4.
type Dependability struct {
	Scenario string

	MTTF      float64 // seconds
	DevStdTTF float64
	MinTTF    float64
	MaxTTF    float64

	MTTR      float64 // seconds
	DevStdTTR float64
	MinTTR    float64
	MaxTTR    float64

	Availability float64 // MTTF / (MTTF + MTTR)

	// CoveragePct is the share of failures recovered without restarting the
	// application or rebooting (failure-mode coverage per Avizienis et al.),
	// with masked failures counting as covered in the masking scenario.
	CoveragePct float64
	// MaskingPct is the share of would-be failures suppressed by masking.
	MaskingPct float64

	Failures int
	Masked   int
}

// DependAccum is the streaming accumulator behind a Table 4 column: it folds
// (unmasked) failure reports in campaign time order and keeps only the
// running TTF/TTR summaries and coverage counters — O(1) state regardless of
// campaign length. Reports MUST arrive in the same order the retained
// estimator processes them (time-sorted, ties in testbed-then-node order)
// for the Welford accumulation to be bit-identical.
type DependAccum struct {
	TTF, TTR stats.Summary
	Failures int
	Masked   int
	Covered  int
	prevFail sim.Time
}

// Add folds one report at its position in the time-ordered failure stream.
func (a *DependAccum) Add(r *core.UserReport) {
	if r.Masked {
		a.Masked++
		return
	}
	a.Failures++
	a.TTF.Add((r.At - a.prevFail).Seconds())
	a.prevFail = r.At
	if r.Recovered {
		a.TTR.Add(r.TTR.Seconds())
		if r.Recovery >= core.RAIPSocketReset && r.Recovery <= core.RABTStackReset {
			a.Covered++
		}
	}
}

// Column finalizes the accumulator into a Table 4 column.
func (a *DependAccum) Column(scenario string) *Dependability {
	d := &Dependability{Scenario: scenario, Failures: a.Failures, Masked: a.Masked}
	d.MTTF, d.DevStdTTF = a.TTF.Mean(), a.TTF.StdDev()
	d.MinTTF, d.MaxTTF = a.TTF.Min(), a.TTF.Max()
	d.MTTR, d.DevStdTTR = a.TTR.Mean(), a.TTR.StdDev()
	d.MinTTR, d.MaxTTR = a.TTR.Min(), a.TTR.Max()
	if d.MTTF+d.MTTR > 0 {
		d.Availability = d.MTTF / (d.MTTF + d.MTTR)
	}
	total := d.Failures + d.Masked
	if total > 0 {
		d.MaskingPct = float64(d.Masked) / float64(total) * 100
		d.CoveragePct = d.MaskingPct + float64(a.Covered)/float64(total)*100
	}
	return d
}

// BuildDependability computes a Table 4 column from the reports of one
// campaign run under a single scenario. TTF is measured piconet-wide: the
// gaps between consecutive (unmasked) failure instants across all nodes of
// the testbed, which matches the paper's "a node in the piconet fails every
// 30 minutes" reading. duration bounds the observation window.
//
// Test oracle: TestStreamerMatchesRetainedExactly.
func BuildDependability(scenario string, reports []core.UserReport, duration sim.Time) *Dependability {
	// Split failure and masked streams; sort by time. The censored tail
	// (last failure to end of window) is not a TTF sample; the paper's
	// estimator uses observed inter-failure gaps.
	_ = duration
	var acc DependAccum
	var failures []core.UserReport
	for _, r := range reports {
		if r.Masked {
			acc.Add(&r)
			continue
		}
		failures = append(failures, r)
	}
	sort.SliceStable(failures, func(i, j int) bool { return failures[i].At < failures[j].At })
	for i := range failures {
		acc.Add(&failures[i])
	}
	return acc.Column(scenario)
}

// Table4 collects the four scenario columns.
type Table4 struct {
	Columns []*Dependability
}

// Improvement reports the relative availability and MTTF gains of the last
// column over the first two (the paper's 3.64 %/36.6 % and 202 % numbers).
func (t *Table4) Improvement() (availVsReboot, availVsAppReboot, mttfGain float64) {
	if len(t.Columns) < 4 {
		return 0, 0, 0
	}
	rebootOnly, appReboot, masked := t.Columns[0], t.Columns[1], t.Columns[3]
	if rebootOnly.Availability > 0 {
		availVsReboot = (masked.Availability - rebootOnly.Availability) / rebootOnly.Availability * 100
	}
	if appReboot.Availability > 0 {
		availVsAppReboot = (masked.Availability - appReboot.Availability) / appReboot.Availability * 100
	}
	base := t.Columns[0].MTTF
	if base > 0 {
		mttfGain = (masked.MTTF - base) / base * 100
	}
	return availVsReboot, availVsAppReboot, mttfGain
}

// Render formats the table in the paper's row layout.
func (t *Table4) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%24s", c.Scenario)
	}
	b.WriteString("\n")
	row := func(label string, get func(*Dependability) string) {
		fmt.Fprintf(&b, "%-16s", label)
		for _, c := range t.Columns {
			fmt.Fprintf(&b, "%24s", get(c))
		}
		b.WriteString("\n")
	}
	row("MTTF (s)", func(d *Dependability) string { return fmt.Sprintf("%.2f", d.MTTF) })
	row("MTTR (s)", func(d *Dependability) string { return fmt.Sprintf("%.2f", d.MTTR) })
	row("Availability", func(d *Dependability) string { return fmt.Sprintf("%.3f", d.Availability) })
	row("% Coverage", func(d *Dependability) string { return fmt.Sprintf("%.2f", d.CoveragePct) })
	row("% Masking", func(d *Dependability) string { return fmt.Sprintf("%.2f", d.MaskingPct) })
	row("DEV_STD TTF (s)", func(d *Dependability) string { return fmt.Sprintf("%.2f", d.DevStdTTF) })
	row("MIN TTF (s)", func(d *Dependability) string { return fmt.Sprintf("%.0f", d.MinTTF) })
	row("MAX TTF (s)", func(d *Dependability) string { return fmt.Sprintf("%.0f", d.MaxTTF) })
	row("DEV_STD TTR (s)", func(d *Dependability) string { return fmt.Sprintf("%.2f", d.DevStdTTR) })
	row("MIN TTR (s)", func(d *Dependability) string { return fmt.Sprintf("%.0f", d.MinTTR) })
	row("MAX TTR (s)", func(d *Dependability) string { return fmt.Sprintf("%.0f", d.MaxTTR) })
	row("failures", func(d *Dependability) string { return fmt.Sprintf("%d", d.Failures) })
	return b.String()
}
