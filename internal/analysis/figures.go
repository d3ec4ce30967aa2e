package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Bar is one bar of a text-mode figure.
type Bar struct {
	Label string
	Share float64 // percent
}

// RenderBars draws a labelled horizontal bar chart.
func RenderBars(title string, bars []Bar, width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	maxShare := 0.0
	for _, bar := range bars {
		if bar.Share > maxShare {
			maxShare = bar.Share
		}
	}
	for _, bar := range bars {
		n := 0
		if maxShare > 0 {
			n = int(bar.Share / maxShare * float64(width))
		}
		fmt.Fprintf(&b, "  %-12s %6.2f%% %s\n", bar.Label, bar.Share, strings.Repeat("#", n))
	}
	return b.String()
}

// Fig3aPacketType computes the packet-loss distribution by baseband packet
// type from random-workload counters, normalised per byte offered so that
// usage imbalance from the binomial type draw does not mask the per-type
// failure proneness (the paper's "prefer multi-slot, prefer DHx" finding).
func Fig3aPacketType(counters map[string]*workload.Counters) []Bar {
	rates := make([]float64, 0, 6)
	types := core.PacketTypes()
	for _, pt := range types {
		var losses, packets int64
		for _, c := range counters {
			losses += c.LossesByType[pt]
			packets += c.PacketsByType[pt]
		}
		if packets > 0 {
			// Losses per byte offered in this type.
			rates = append(rates, float64(losses)/float64(packets*int64(pt.Payload())))
		} else {
			rates = append(rates, 0)
		}
	}
	shares := stats.Normalize(rates)
	bars := make([]Bar, len(types))
	for i, pt := range types {
		bars[i] = Bar{Label: pt.String(), Share: shares[i]}
	}
	return bars
}

// Fig3bConnectionAge histograms packet-loss failures by the number of
// packets sent on the connection before the loss (the fixed workload's
// infant-mortality curve). Bins of binWidth packets, nbins bins.
func Fig3bConnectionAge(reports []core.UserReport, binWidth, nbins int) []Bar {
	h := stats.NewHistogram(0, float64(binWidth*nbins), nbins)
	for _, r := range reports {
		if r.Masked || r.Failure != core.UFPacketLoss {
			continue
		}
		h.Add(float64(r.SentPkts))
	}
	shares := h.Shares()
	bars := make([]Bar, nbins)
	for i := range bars {
		bars[i] = Bar{Label: h.BinLabel(i), Share: shares[i]}
	}
	return bars
}

// Fig3cApplications computes the packet-loss share by emulated application
// from realistic-workload reports.
//
// Test oracle: TestStreamerMatchesRetainedExactly.
func Fig3cApplications(reports []core.UserReport) []Bar {
	counts := make(map[core.AppKind]float64)
	for i := range reports {
		AddFig3c(counts, &reports[i])
	}
	return Fig3cFromCounts(counts)
}

// AddFig3c folds one realistic-workload report into Figure 3c's counts
// (no-op unless it is an unmasked, app-attributed packet loss).
func AddFig3c(counts map[core.AppKind]float64, r *core.UserReport) {
	if r.Masked || r.Failure != core.UFPacketLoss || r.App == core.AppNone {
		return
	}
	counts[r.App]++
}

// Fig3cFromCounts finalizes accumulated per-app loss counts into the
// Figure 3c bars.
func Fig3cFromCounts(counts map[core.AppKind]float64) []Bar {
	apps := core.Apps()
	raw := make([]float64, len(apps))
	for i, a := range apps {
		raw[i] = counts[a]
	}
	shares := stats.Normalize(raw)
	bars := make([]Bar, len(apps))
	for i, a := range apps {
		bars[i] = Bar{Label: a.String(), Share: shares[i]}
	}
	return bars
}

// Fig4Row is one host's failure-type distribution.
type Fig4Row struct {
	Node   string
	Shares map[core.UserFailure]float64 // percent of the host's failures
	Total  int
}

// Fig4PerHost computes the per-host user-failure distribution (realistic
// workload, no masking — matching the paper's Figure 4 conditions).
//
// Test oracle: TestStreamerMatchesRetainedExactly.
func Fig4PerHost(reports []core.UserReport) []Fig4Row {
	perNode := make(map[string]map[core.UserFailure]int)
	for i := range reports {
		AddFig4(perNode, &reports[i])
	}
	return Fig4FromCounts(perNode)
}

// AddFig4 folds one report into Figure 4's per-host counts (masked reports
// are skipped).
func AddFig4(perNode map[string]map[core.UserFailure]int, r *core.UserReport) {
	if r.Masked {
		return
	}
	if perNode[r.Node] == nil {
		perNode[r.Node] = make(map[core.UserFailure]int)
	}
	perNode[r.Node][r.Failure]++
}

// Fig4FromCounts finalizes accumulated per-host failure counts into the
// Figure 4 rows.
func Fig4FromCounts(perNode map[string]map[core.UserFailure]int) []Fig4Row {
	nodes := make([]string, 0, len(perNode))
	for n := range perNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	rows := make([]Fig4Row, 0, len(nodes))
	for _, n := range nodes {
		total := 0
		for _, c := range perNode[n] {
			total += c
		}
		shares := make(map[core.UserFailure]float64, len(perNode[n]))
		for f, c := range perNode[n] {
			shares[f] = float64(c) / float64(total) * 100
		}
		rows = append(rows, Fig4Row{Node: n, Shares: shares, Total: total})
	}
	return rows
}

// RenderFig4 formats the per-host distribution.
func RenderFig4(rows []Fig4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "Host")
	for _, f := range core.UserFailures() {
		fmt.Fprintf(&b, "%24s", f)
	}
	b.WriteString("\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-10s", row.Node)
		for _, f := range core.UserFailures() {
			fmt.Fprintf(&b, "%23.1f%%", row.Shares[f])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Scalars are the §6 auxiliary findings.
type Scalars struct {
	// RandomSharePct is the share of failures from the random workload
	// (paper: 84 %).
	RandomSharePct float64
	// IdleBeforeFailedMean / IdleBeforeCleanMean compare T_W before failed
	// and failure-free cycles (paper: 27.3 s vs 26.9 s — idle connections
	// do not fail more).
	IdleBeforeFailedMean float64
	IdleBeforeCleanMean  float64
	// DistanceShares is the failure share per antenna distance, excluding
	// bind failures (which would bias it, manifesting on two hosts only).
	DistanceShares map[float64]float64
	// UserReports / SystemEntries are the dataset sizes.
	UserReports   int
	SystemEntries int
}

// ScalarCounts is the streaming accumulator behind the §6 scalars: plain
// integer counts folded one report at a time (the idle-time summaries come
// from workload counters, which stay O(nodes) on the testbed side).
type ScalarCounts struct {
	NRandom    int // unmasked failures, random workload
	NRealistic int // unmasked failures, realistic workload
	// DistCount / DistTotal split realistic unmasked non-bind failures by
	// antenna distance.
	DistCount map[float64]int
	DistTotal int
}

// NewScalarCounts allocates the accumulator.
func NewScalarCounts() *ScalarCounts {
	return &ScalarCounts{DistCount: make(map[float64]int)}
}

// Add folds one report from the named workload kind.
func (c *ScalarCounts) Add(r *core.UserReport, kind core.WorkloadKind) {
	if r.Masked {
		return
	}
	switch kind {
	case core.WLRandom:
		c.NRandom++
	case core.WLRealistic:
		c.NRealistic++
		if r.Failure != core.UFBindFailed {
			c.DistCount[r.DistanceM]++
			c.DistTotal++
		}
	}
}

// Scalars finalizes the counts (plus the per-client counters and the system
// entry total) into the §6 scalar report.
func (c *ScalarCounts) Scalars(counters map[string]*workload.Counters, systemEntries int) *Scalars {
	s := &Scalars{DistanceShares: make(map[float64]float64)}
	if c.NRandom+c.NRealistic > 0 {
		s.RandomSharePct = float64(c.NRandom) / float64(c.NRandom+c.NRealistic) * 100
	}
	s.UserReports = c.NRandom + c.NRealistic
	s.SystemEntries = systemEntries

	// Merge in sorted key order: float accumulation is rounding-order
	// dependent, and map iteration order would make the scalar outputs
	// differ in ulps between otherwise identical runs.
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	var failed, clean stats.Summary
	for _, name := range names {
		failed.Merge(counters[name].IdleBeforeFailed)
		clean.Merge(counters[name].IdleBeforeClean)
	}
	s.IdleBeforeFailedMean = failed.Mean()
	s.IdleBeforeCleanMean = clean.Mean()

	for d, n := range c.DistCount {
		if c.DistTotal > 0 {
			s.DistanceShares[d] = float64(n) / float64(c.DistTotal) * 100
		}
	}
	return s
}

// BuildScalars computes the §6 scalars from both testbeds' data.
//
// Test oracle: TestStreamerMatchesRetainedExactly.
func BuildScalars(randomReports, realisticReports []core.UserReport,
	counters map[string]*workload.Counters, systemEntries int) *Scalars {
	counts := NewScalarCounts()
	for i := range randomReports {
		counts.Add(&randomReports[i], core.WLRandom)
	}
	for i := range realisticReports {
		counts.Add(&realisticReports[i], core.WLRealistic)
	}
	return counts.Scalars(counters, systemEntries)
}
