package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// drain is one recorded log drain of a testbed node.
type drain struct {
	testbed, node string
	reports       []core.UserReport
	entries       []core.SystemEntry
	watermark     sim.Time
}

// spanIngestor sits between a campaign's testbeds and their aggregator. It
// spans every drain while the tracer is on, noting each testbed's busy time
// in the aggregator and when its last drain ended, and with record set keeps
// every drain. Log drains hand over their slices, so keeping them is safe.
type spanIngestor struct {
	next          testbed.Ingestor
	tr            *tracer
	parent, round int
	record        bool

	mu      sync.Mutex
	lastEnd map[string]int64 // tracer time of each testbed's last drain end
	busy    map[string]int64 // ns each testbed spent inside next.Ingest
	drains  map[string][]drain
}

func newSpanIngestor(next testbed.Ingestor, tr *tracer, parent, round int, record bool) *spanIngestor {
	return &spanIngestor{next: next, tr: tr, parent: parent, round: round, record: record,
		lastEnd: make(map[string]int64), busy: make(map[string]int64),
		drains: make(map[string][]drain)}
}

// Ingest implements testbed.Ingestor.
func (s *spanIngestor) Ingest(tb, node string, reports []core.UserReport,
	entries []core.SystemEntry, watermark sim.Time) error {
	id := s.tr.begin("fold.ingest", s.parent, s.round)
	err := s.next.Ingest(tb, node, reports, entries, watermark)
	start, end := s.tr.end(id)
	if id < 0 && !s.record {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id >= 0 {
		s.lastEnd[tb] = end
		s.busy[tb] += end - start
	}
	if s.record {
		s.drains[tb] = append(s.drains[tb], drain{tb, node, reports, entries, watermark})
	}
	return err
}

// corpus is a campaign's recorded drains, per testbed in ingest order.
type corpus struct {
	spec    analysis.StreamSpec
	drains  map[string][]drain
	records int
}

func newCorpus(spec analysis.StreamSpec, drains map[string][]drain) *corpus {
	c := &corpus{spec: spec, drains: drains}
	for _, ds := range drains {
		for _, d := range ds {
			c.records += len(d.reports) + len(d.entries)
		}
	}
	return c
}

// merged interleaves the testbeds' drains by watermark (ties in spec
// order), one of the orders a single-process campaign delivers them in.
func (c *corpus) merged() []drain {
	var all []drain
	for _, tb := range c.spec.Testbeds {
		all = append(all, c.drains[tb.Name]...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].watermark < all[j].watermark })
	return all
}

// foldPairs is the number of taxonomy on/off replay pairs foldCost times.
const foldPairs = 11

// foldCost replays the corpus into fresh streamers with the taxonomy plane
// on and off, alternating, and records the fold's cost per record (taxonomy
// on, as campaigns run) and the taxonomy plane's relative cost,
// median(on) / median(off) - 1, against its 5 % budget. It flips a
// process-wide switch, so nothing else may fold meanwhile.
func (c *corpus) foldCost(r *result) error {
	defer analysis.SetTaxonomyDisabled(false)
	order := c.merged()
	var on, off []float64
	for i := 0; i < foldPairs; i++ {
		for _, disabled := range []bool{false, true} {
			analysis.SetTaxonomyDisabled(disabled)
			t0 := time.Now()
			str, err := analysis.NewStreamer(c.spec)
			if err != nil {
				return err
			}
			for _, d := range order {
				if err := str.Ingest(d.testbed, d.node, d.reports, d.entries, d.watermark); err != nil {
					return err
				}
			}
			str.Finalize()
			if disabled {
				off = append(off, time.Since(t0).Seconds())
			} else {
				on = append(on, time.Since(t0).Seconds())
			}
		}
	}
	r.metrics["fold.taxonomy_overhead_frac"] = median(on)/median(off) - 1
	r.addDetail("fold.ns_per_record", median(on)*1e9/float64(c.records), "ns/record")
	return nil
}

// simCounts are the simulation plane's exact work counts for one campaign.
type simCounts struct {
	events, radioBursts, packets, cycles float64
}

// countSim reads the counts from a finished campaign's public accessors.
// The radio's run-length fast path leaves its per-slot counters untouched,
// so the radio's count is the interference bursts it sampled.
func countSim(c *testbed.Campaign) simCounts {
	var n simCounts
	for _, tb := range []*testbed.Testbed{c.Random, c.Realistic} {
		n.events += float64(tb.World.Executed())
		for _, h := range tb.PANUs {
			_, _, bursts := h.Link.Stats()
			n.radioBursts += float64(bursts)
		}
		for _, cl := range tb.Clients {
			cnt := cl.Counters()
			n.cycles += float64(cnt.Cycles)
			for _, p := range cnt.PacketsByType {
				n.packets += float64(p)
			}
		}
	}
	return n
}

// set stores the counts as per-layer metrics.
func (n simCounts) set(r *result) {
	r.metrics["sim.events"] = n.events
	r.metrics["radio.bursts"] = n.radioBursts
	r.metrics["workload.packets"] = n.packets
	r.metrics["workload.cycles"] = n.cycles
}
