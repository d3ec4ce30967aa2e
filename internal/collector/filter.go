package collector

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Filter decides what is significant enough to keep in the retained record
// files (btcampaign -out). The paper's LogAnalyzer filters the raw logs so
// that only significant data travels; the dominant noise in system logs is
// repeated identical error entries from one component thrashing, which
// collapse to the first occurrence within the window. User reports pass
// unfiltered: every user-level failure is significant by definition.
type Filter struct {
	// DedupWindow collapses identical (node, code) system entries closer
	// than this; 0 disables deduplication.
	DedupWindow sim.Time
}

// DefaultFilter returns the standard filter.
func DefaultFilter() Filter {
	return Filter{DedupWindow: 2 * sim.Second}
}

// FilterSystem returns the significant entries, preserving order. The
// dedup key is (node, code) only, so entries of two testbeds that share
// node names must be filtered separately.
func (f Filter) FilterSystem(entries []core.SystemEntry) []core.SystemEntry {
	if f.DedupWindow <= 0 || len(entries) == 0 {
		return entries
	}
	type key struct {
		node string
		code core.ErrorCode
	}
	lastSeen := make(map[key]sim.Time)
	out := make([]core.SystemEntry, 0, len(entries))
	for _, e := range entries {
		k := key{e.Node, e.Code}
		if at, ok := lastSeen[k]; ok && e.At-at <= f.DedupWindow {
			lastSeen[k] = e.At
			continue
		}
		lastSeen[k] = e.At
		out = append(out, e)
	}
	return out
}
