package analysis

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The taxonomy/survival plane (PR 10). Every user report carries a
// protocol phase and a transience verdict assigned once, at collection
// time; the accumulators below reduce them with O(1) state per node and
// exact integer arithmetic, so retained, streaming, distributed and
// sharded-merge aggregation all land on bit-identical tables. Floating
// point appears only at render time (Table/Curve), derived from the same
// integers on every plane.

// taxonomyDisabled is a benchmark-only kill switch: scripts/bench.sh
// flips it to measure the marginal cost of the taxonomy plane on the
// streaming hot path (taxonomy_overhead_ratio). It is never set in
// production paths — rendering is gated by CLI flags instead, so the
// accumulators always run and cross-plane equivalence always holds.
var taxonomyDisabled atomic.Bool

// SetTaxonomyDisabled turns the taxonomy/survival accumulation off (or
// back on). Benchmarks only; see taxonomyDisabled.
func SetTaxonomyDisabled(v bool) { taxonomyDisabled.Store(v) }

// Survival histogram binning: thirty 120-second bins spanning the first
// hour of uptime. Uptimes past the span saturate into the top bin, which
// the Kaplan-Meier renderer labels as open-ended. All planes must bin
// identically or Merge panics, so these are package constants.
const (
	// SurvivalBinSeconds is the width of one uptime bin.
	SurvivalBinSeconds = 120
	// SurvivalBins is the number of uptime bins.
	SurvivalBins = 30
)

// newSurvivalHist allocates a histogram with the canonical uptime binning.
func newSurvivalHist() *stats.Histogram {
	return stats.NewHistogram(0, SurvivalBinSeconds*SurvivalBins, SurvivalBins)
}

// TaxonomyAccum reduces failure reports into per-phase, per-verdict
// integer counts plus the integer sums needed for per-phase MTBF/MTTR.
// All fields are exact integers (times are virtual nanoseconds), so
// Merge is associative and commutative and the accumulator is
// regroup-invariant across shardings.
type TaxonomyAccum struct {
	// Nodes is the number of observed PANU node streams (summed on
	// merge of disjoint shards). The per-phase MTBF is rate-based —
	// duration * Nodes / failures — which keeps it order-free.
	Nodes int

	// Counts[phase][verdict] counts unmasked failures.
	Counts [core.NumFailurePhases + 1][core.NumTransienceVerdicts + 1]int

	// Masked counts error-masked occurrences per phase; they carry tags
	// too but stay out of the user-visible failure counts, mirroring
	// Table 2/3 semantics.
	Masked [core.NumFailurePhases + 1]int

	// Recovered and TTRSum feed the per-phase MTTR (TTRSum/Recovered).
	Recovered [core.NumFailurePhases + 1]int
	TTRSum    [core.NumFailurePhases + 1]sim.Time
}

// NewTaxonomyAccum allocates an empty taxonomy accumulator.
func NewTaxonomyAccum() *TaxonomyAccum { return &TaxonomyAccum{} }

// Add folds one report in. Out-of-range tags (which the codec rejects,
// but hand-built records may carry) collapse to the unknown bucket
// rather than corrupting memory.
func (t *TaxonomyAccum) Add(r *core.UserReport) {
	p := r.Phase
	if p < 0 || int(p) > core.NumFailurePhases {
		p = core.PhaseUnknown
	}
	v := r.Verdict
	if v < 0 || int(v) > core.NumTransienceVerdicts {
		v = core.VerdictUnknown
	}
	if r.Masked {
		t.Masked[p]++
		return
	}
	t.Counts[p][v]++
	if r.Recovered {
		t.Recovered[p]++
		t.TTRSum[p] += r.TTR
	}
}

// Merge folds another accumulator in by exact integer sums.
func (t *TaxonomyAccum) Merge(o *TaxonomyAccum) {
	t.Nodes += o.Nodes
	for p := range t.Counts {
		for v := range t.Counts[p] {
			t.Counts[p][v] += o.Counts[p][v]
		}
		t.Masked[p] += o.Masked[p]
		t.Recovered[p] += o.Recovered[p]
		t.TTRSum[p] += o.TTRSum[p]
	}
}

// Clone returns an independent copy (all fields are values).
func (t *TaxonomyAccum) Clone() *TaxonomyAccum {
	c := *t
	return &c
}

// Failures reports the unmasked failure count of one phase.
func (t *TaxonomyAccum) Failures(p core.FailurePhase) int {
	n := 0
	for _, c := range t.Counts[p] {
		n += c
	}
	return n
}

// TaxonomyRow is one rendered line of the taxonomy table.
type TaxonomyRow struct {
	Phase     core.FailurePhase
	Failures  int // unmasked failures in the phase
	Transient int
	Dynamic   int // dynamic-availability verdicts (windowed recurrence)
	Masked    int
	Recovered int
	MTBF      float64 // seconds; 0 when no failures
	MTTR      float64 // seconds; 0 when nothing recovered
}

// TaxonomyTable is the rendered per-phase MTBF/MTTR split.
type TaxonomyTable struct {
	Rows  []TaxonomyRow
	Total TaxonomyRow
}

// Table derives the per-phase table for a campaign of the given
// duration. Pure floats-from-integers: identical accumulators yield
// bit-identical tables on every plane.
func (t *TaxonomyAccum) Table(duration sim.Time) *TaxonomyTable {
	out := &TaxonomyTable{}
	phases := append([]core.FailurePhase{core.PhaseUnknown}, core.FailurePhases()...)
	for _, p := range phases {
		row := TaxonomyRow{
			Phase:     p,
			Failures:  t.Failures(p),
			Transient: t.Counts[p][core.VerdictTransient],
			Dynamic:   t.Counts[p][core.VerdictDynamicAvailability],
			Masked:    t.Masked[p],
			Recovered: t.Recovered[p],
		}
		if p == core.PhaseUnknown && row.Failures == 0 && row.Masked == 0 {
			continue // only untagged records land here
		}
		if row.Failures > 0 && t.Nodes > 0 {
			row.MTBF = duration.Seconds() * float64(t.Nodes) / float64(row.Failures)
		}
		if row.Recovered > 0 {
			row.MTTR = t.TTRSum[p].Seconds() / float64(row.Recovered)
		}
		out.Rows = append(out.Rows, row)
		out.Total.Failures += row.Failures
		out.Total.Transient += row.Transient
		out.Total.Dynamic += row.Dynamic
		out.Total.Masked += row.Masked
		out.Total.Recovered += row.Recovered
	}
	if out.Total.Failures > 0 && t.Nodes > 0 {
		out.Total.MTBF = duration.Seconds() * float64(t.Nodes) / float64(out.Total.Failures)
	}
	var ttr sim.Time
	for p := range t.TTRSum {
		ttr += t.TTRSum[p]
	}
	if out.Total.Recovered > 0 {
		out.Total.MTTR = ttr.Seconds() / float64(out.Total.Recovered)
	}
	return out
}

// Render formats the table in the repo's fixed-width report style.
func (tt *TaxonomyTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %9s %10s %10s %7s %10s %12s %10s\n",
		"phase", "failures", "transient", "dyn-avail", "masked", "recovered", "MTBF (s)", "MTTR (s)")
	line := func(r TaxonomyRow, name string) {
		fmt.Fprintf(&b, "%-10s %9d %10d %10d %7d %10d %12.1f %10.2f\n",
			name, r.Failures, r.Transient, r.Dynamic, r.Masked, r.Recovered, r.MTBF, r.MTTR)
	}
	for _, r := range tt.Rows {
		line(r, r.Phase.String())
	}
	line(tt.Total, "total")
	return b.String()
}

// SurvivalAccum estimates node uptime survival with O(1) state per node
// stream: two fixed-binning integer histograms plus one open-interval
// instant per stream. Uptime is the time between consecutive unmasked
// failures of a node (the first interval measured from the campaign
// origin); intervals still open at the horizon are censored.
type SurvivalAccum struct {
	// Uptimes bins completed uptime intervals — the Kaplan-Meier event
	// bins, doubling as the failure-interarrival histogram.
	Uptimes *stats.Histogram

	// Censored bins intervals closed without a failure (stream ended at
	// the campaign horizon). Populated by Censor; until then open
	// intervals live in LastFail and Curve censors them virtually.
	Censored *stats.Histogram

	// UptimeSum/UptimeN are exact integer sums over completed intervals
	// (mean interarrival for the CI scalar columns).
	UptimeSum sim.Time
	UptimeN   int

	// LastFail maps open node streams ("testbed/node") to the instant
	// of their last unmasked failure (the origin 0 right after
	// Observe). Merging shards with colliding keys would double-count a
	// stream, so folds over same-named rosters (scatternet piconets)
	// must Censor before merging; disjoint shards merge directly.
	LastFail map[string]sim.Time
}

// NewSurvivalAccum allocates an empty survival accumulator.
func NewSurvivalAccum() *SurvivalAccum {
	return &SurvivalAccum{
		Uptimes:  newSurvivalHist(),
		Censored: newSurvivalHist(),
		LastFail: make(map[string]sim.Time),
	}
}

// survivalKey names one node stream.
func survivalKey(testbed, node string) string { return testbed + "/" + node }

// Observe registers a node stream at the campaign origin, so nodes that
// never fail still contribute a censored interval and the first failure
// measures time-to-first-failure.
func (s *SurvivalAccum) Observe(testbed, node string) {
	k := survivalKey(testbed, node)
	if _, ok := s.LastFail[k]; !ok {
		s.LastFail[k] = 0
	}
}

// Add folds one report in, closing the node's open uptime interval.
// Masked occurrences do not end an uptime (the user never saw an
// outage), matching the masking semantics of the availability figures.
func (s *SurvivalAccum) Add(testbed, node string, r *core.UserReport) {
	if r.Masked {
		return
	}
	k := survivalKey(testbed, node)
	last := s.LastFail[k] // zero origin if the stream was never observed
	up := r.At - last
	if up < 0 {
		up = 0
	}
	s.Uptimes.Add(up.Seconds())
	s.UptimeSum += up
	s.UptimeN++
	s.LastFail[k] = r.At
}

// Censor closes every open interval at the horizon, draining LastFail
// into the censored bins. Call it before merging accumulators whose
// rosters share node names (scatternet piconets); idempotent.
func (s *SurvivalAccum) Censor(horizon sim.Time) {
	for k, last := range s.LastFail {
		up := horizon - last
		if up < 0 {
			up = 0
		}
		s.Censored.Add(up.Seconds())
		delete(s.LastFail, k)
	}
}

// Merge folds another accumulator in. Histogram merges are exact
// integer-bin sums; open streams are unioned (keys must be disjoint —
// see LastFail).
func (s *SurvivalAccum) Merge(o *SurvivalAccum) {
	s.Uptimes.Merge(o.Uptimes)
	s.Censored.Merge(o.Censored)
	s.UptimeSum += o.UptimeSum
	s.UptimeN += o.UptimeN
	for k, v := range o.LastFail {
		s.LastFail[k] = v
	}
}

// MeanUptimeSeconds reports the mean completed uptime (failure
// interarrival), 0 when no interval completed.
func (s *SurvivalAccum) MeanUptimeSeconds() float64 {
	if s.UptimeN == 0 {
		return 0
	}
	return s.UptimeSum.Seconds() / float64(s.UptimeN)
}

// SurvivalPoint is one bin of the Kaplan-Meier curve.
type SurvivalPoint struct {
	UpToSeconds float64 // bin upper edge (uptime <= this)
	Events      int     // failures in the bin
	Censored    int     // censored intervals in the bin
	AtRisk      int     // streams at risk entering the bin
	S           float64 // survival estimate after the bin
}

// SurvivalCurve is the rendered Kaplan-Meier estimate.
type SurvivalCurve struct {
	Points []SurvivalPoint
	Total  int // intervals (events + censored) entering the estimate
}

// Curve derives the Kaplan-Meier survival curve at the horizon without
// mutating the accumulator: open intervals are censored virtually, so a
// single-campaign plane never needs an explicit Censor. The estimate
// uses the grouped form S *= (1 - d_j/R_j) with censored intervals in a
// bin leaving the risk set after the bin's events.
func (s *SurvivalAccum) Curve(horizon sim.Time) *SurvivalCurve {
	cens := newSurvivalHist()
	cens.Merge(s.Censored)
	for _, last := range s.LastFail {
		up := horizon - last
		if up < 0 {
			up = 0
		}
		cens.Add(up.Seconds())
	}
	ev, cn := s.Uptimes.Counts(), cens.Counts()
	atRisk := 0
	for j := range ev {
		atRisk += ev[j] + cn[j]
	}
	out := &SurvivalCurve{Total: atRisk}
	surv := 1.0
	for j := range ev {
		d, c := ev[j], cn[j]
		if d == 0 && c == 0 {
			continue
		}
		if d > 0 && atRisk > 0 {
			surv *= 1 - float64(d)/float64(atRisk)
		}
		out.Points = append(out.Points, SurvivalPoint{
			UpToSeconds: float64(SurvivalBinSeconds) * float64(j+1),
			Events:      d,
			Censored:    c,
			AtRisk:      atRisk,
			S:           surv,
		})
		atRisk -= d + c
	}
	return out
}

// Render formats the curve; the top bin is open-ended (uptimes past the
// histogram span saturate into it).
func (c *SurvivalCurve) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Kaplan-Meier node uptime survival (%d intervals)\n", c.Total)
	fmt.Fprintf(&b, "%12s %8s %9s %8s %10s\n", "uptime", "events", "censored", "at-risk", "S(t)")
	span := float64(SurvivalBinSeconds * SurvivalBins)
	for _, p := range c.Points {
		label := fmt.Sprintf("<= %.0fs", p.UpToSeconds)
		if p.UpToSeconds >= span {
			label = fmt.Sprintf("> %.0fs", span-SurvivalBinSeconds)
		}
		fmt.Fprintf(&b, "%12s %8d %9d %8d %10.6f\n",
			label, p.Events, p.Censored, p.AtRisk, p.S)
	}
	return b.String()
}

// RenderInterarrival formats the non-empty bins of the interarrival
// histogram with share bars.
func (s *SurvivalAccum) RenderInterarrival(width int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "failure interarrival (mean %.1f s over %d intervals)\n",
		s.MeanUptimeSeconds(), s.UptimeN)
	counts := s.Uptimes.Counts()
	total := 0
	for _, c := range counts {
		total += c
	}
	for j, c := range counts {
		if c == 0 {
			continue
		}
		bar := 0
		if total > 0 {
			bar = int(float64(width) * float64(c) / float64(total))
		}
		fmt.Fprintf(&b, "%12s %6d %s\n",
			fmt.Sprintf("[%d,%ds)", j*SurvivalBinSeconds, (j+1)*SurvivalBinSeconds),
			c, strings.Repeat("#", bar))
	}
	return b.String()
}

// OpenStream is one still-open node stream in a survival snapshot,
// sorted by key for deterministic serialization.
type OpenStream struct {
	Key      string   `json:"key"`
	LastFail sim.Time `json:"last_fail"`
}

// SurvivalSnapshot is the serializable state of a SurvivalAccum.
type SurvivalSnapshot struct {
	Uptimes   stats.HistogramSnapshot `json:"uptimes"`
	Censored  stats.HistogramSnapshot `json:"censored"`
	UptimeSum sim.Time                `json:"uptime_sum"`
	UptimeN   int                     `json:"uptime_n"`
	Open      []OpenStream            `json:"open,omitempty"`
}

// Snapshot captures the accumulator for a checkpoint.
func (s *SurvivalAccum) Snapshot() *SurvivalSnapshot {
	snap := &SurvivalSnapshot{
		Uptimes:   s.Uptimes.Snapshot(),
		Censored:  s.Censored.Snapshot(),
		UptimeSum: s.UptimeSum,
		UptimeN:   s.UptimeN,
	}
	for k, v := range s.LastFail {
		snap.Open = append(snap.Open, OpenStream{Key: k, LastFail: v})
	}
	sort.Slice(snap.Open, func(i, j int) bool { return snap.Open[i].Key < snap.Open[j].Key })
	return snap
}

// RestoreSurvivalAccum rebuilds an accumulator from its snapshot.
func RestoreSurvivalAccum(snap *SurvivalSnapshot) (*SurvivalAccum, error) {
	up, err := stats.RestoreHistogram(snap.Uptimes)
	if err != nil {
		return nil, fmt.Errorf("survival uptimes: %w", err)
	}
	cn, err := stats.RestoreHistogram(snap.Censored)
	if err != nil {
		return nil, fmt.Errorf("survival censored: %w", err)
	}
	s := &SurvivalAccum{
		Uptimes:   up,
		Censored:  cn,
		UptimeSum: snap.UptimeSum,
		UptimeN:   snap.UptimeN,
		LastFail:  make(map[string]sim.Time, len(snap.Open)),
	}
	for _, o := range snap.Open {
		s.LastFail[o.Key] = o.LastFail
	}
	return s, nil
}
