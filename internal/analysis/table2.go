package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/sim"
)

// Cell is one (local, NAP) evidence pair of Table 2, in percent of the
// row's evidence.
type Cell struct {
	Local float64
	NAP   float64
}

// Table2 is the error–failure relationship table.
type Table2 struct {
	// Rows in taxonomy order; absent failures keep zero rows.
	Rows map[core.UserFailure]map[core.SysSource]Cell
	// RowEvidence counts total evidence per failure (the row denominators).
	RowEvidence map[core.UserFailure]int
	// NoRelationship is the share (%) of a failure's occurrences with no
	// related system entry at all.
	NoRelationship map[core.UserFailure]float64
	// Tot is the share (%) of each user failure among all occurrences
	// (the paper's TOT column).
	Tot map[core.UserFailure]float64
	// SourceTotals is the bottom "total" row: share (%) of all evidence per
	// source, split by locality.
	SourceTotals map[core.SysSource]Cell
	// TotalFailures is the number of unmasked user failures considered.
	TotalFailures int
}

// BuildEvidenceWithRadius runs the merge-and-coalesce pipeline for every
// PANU of one testbed and accumulates relationship evidence at the given
// coalescence window and evidence adjacency radius. The NAP's system log is
// merged into every PANU's stream (the paper relates each Test Log with both
// the local and the NAP system logs). Call once per testbed with a shared
// Evidence to aggregate a whole campaign. It is the batch relator: the only
// path that serves a radius wider than the window.
func BuildEvidenceWithRadius(ev *coalesce.Evidence, perNodeReports map[string][]core.UserReport,
	perNodeEntries map[string][]core.SystemEntry, napNode string, window, radius sim.Time) {
	napEntries := perNodeEntries[napNode]
	nodes := make([]string, 0, len(perNodeReports))
	for node := range perNodeReports {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		events := coalesce.Merge(perNodeReports[node], perNodeEntries[node], napEntries)
		tuples := coalesce.Tuples(events, window)
		coalesce.RelateWithRadius(ev, tuples, napNode, radius)
	}
}

// BuildTable2 renders accumulated evidence as the percentage table.
func BuildTable2(ev *coalesce.Evidence) *Table2 {
	t := &Table2{
		Rows:           make(map[core.UserFailure]map[core.SysSource]Cell),
		RowEvidence:    make(map[core.UserFailure]int),
		NoRelationship: make(map[core.UserFailure]float64),
		Tot:            make(map[core.UserFailure]float64),
		SourceTotals:   make(map[core.SysSource]Cell),
		TotalFailures:  ev.TotalFailures,
	}
	// Row percentages.
	for _, f := range core.UserFailures() {
		rowTotal := ev.RowTotal(f)
		t.RowEvidence[f] = rowTotal
		cells := make(map[core.SysSource]Cell)
		for _, src := range core.SysSources() {
			local := ev.Counts[coalesce.EvidenceKey{Failure: f, Source: src, Locality: coalesce.Local}]
			nap := ev.Counts[coalesce.EvidenceKey{Failure: f, Source: src, Locality: coalesce.NAP}]
			if rowTotal > 0 {
				cells[src] = Cell{
					Local: float64(local) / float64(rowTotal) * 100,
					NAP:   float64(nap) / float64(rowTotal) * 100,
				}
			}
		}
		t.Rows[f] = cells
		if n := ev.FailureTotals[f]; n > 0 {
			t.NoRelationship[f] = float64(ev.NoRelationship[f]) / float64(n) * 100
		}
		if ev.TotalFailures > 0 {
			t.Tot[f] = float64(ev.FailureTotals[f]) / float64(ev.TotalFailures) * 100
		}
	}
	// Source totals over all evidence.
	grand := 0
	for _, n := range ev.Counts {
		grand += n
	}
	if grand > 0 {
		for _, src := range core.SysSources() {
			var local, nap int
			for key, n := range ev.Counts {
				if key.Source != src {
					continue
				}
				if key.Locality == coalesce.NAP {
					nap += n
				} else {
					local += n
				}
			}
			t.SourceTotals[src] = Cell{
				Local: float64(local) / float64(grand) * 100,
				NAP:   float64(nap) / float64(grand) * 100,
			}
		}
	}
	return t
}

// SourceShare reports the combined (local+NAP) share of a source in the
// total row — e.g. the paper's "49.9 % of the user failures are due to HCI".
func (t *Table2) SourceShare(src core.SysSource) float64 {
	c := t.SourceTotals[src]
	return c.Local + c.NAP
}

// RowShare reports the combined share of a source within one failure's row.
func (t *Table2) RowShare(f core.UserFailure, src core.SysSource) float64 {
	c := t.Rows[f][src]
	return c.Local + c.NAP
}

// Render formats the table in the paper's layout.
func (t *Table2) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s", "User Level Failure")
	for _, src := range core.SysSources() {
		fmt.Fprintf(&b, "%14s", src.String()+" loc/NAP")
	}
	fmt.Fprintf(&b, "%8s\n", "TOT")
	for _, f := range core.UserFailures() {
		fmt.Fprintf(&b, "%-26s", f)
		for _, src := range core.SysSources() {
			c := t.Rows[f][src]
			fmt.Fprintf(&b, "%8.1f/%-5.1f", c.Local, c.NAP)
		}
		fmt.Fprintf(&b, "%7.1f\n", t.Tot[f])
	}
	fmt.Fprintf(&b, "%-26s", "Total")
	for _, src := range core.SysSources() {
		c := t.SourceTotals[src]
		fmt.Fprintf(&b, "%8.1f/%-5.1f", c.Local, c.NAP)
	}
	fmt.Fprintf(&b, "%7s\n", "100.0")
	return b.String()
}
