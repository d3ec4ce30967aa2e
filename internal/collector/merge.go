package collector

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The sharded-sink merge tier: a campaign too hot for one sink is split
// across N sink shards, each hosting a disjoint subset of the campaign's
// testbeds under the same keyspace (built with analysis.SubSpec, so every
// shard records the depend trace). When a shard's subset completes, the
// shard exports a Partial; MergePartials folds the N partials into the one
// SinkReport a single sink hosting the whole campaign would have produced —
// byte-identical tables, per the analysis merge laws.

// Partial is one sink shard's completed contribution to a campaign: the
// shard's finalized aggregates (with depend trace), plus the counters and
// durations from the Done frames of the testbeds it hosted. Serialized as
// JSON by cmd/btsink (-partial-dir) and merged by cmd/btmerge.
type Partial struct {
	Keyspace  string                                           `json:"keyspace,omitempty"`
	Campaign  CampaignID                                       `json:"campaign"`
	Shard     analysis.ShardAggregates                         `json:"shard"`
	Counters  map[string]map[string]*workload.CountersSnapshot `json:"counters,omitempty"`
	Durations map[string]sim.Time                              `json:"durations,omitempty"`
}

// Partial exports one completed keyspace's shard partial. It fails while
// the keyspace's campaign is still incomplete — a partial must cover its
// testbed subset entirely, or the merge would silently under-count.
func (s *Sink) Partial(key string) (*Partial, error) {
	s.mu.Lock()
	t := s.tenants[nsKey{key: key}]
	if t == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("collector: partial of unknown keyspace %q", key)
	}
	if !t.complete {
		s.mu.Unlock()
		return nil, fmt.Errorf("collector: partial of incomplete keyspace %q (%d/%d testbeds finished)",
			key, len(t.finished), len(t.cfg.Spec.Testbeds))
	}
	p := &Partial{
		Keyspace: key,
		Campaign: t.cfg.Campaign,
		Shard: analysis.ShardAggregates{
			Agg:   t.agg.Snapshot(),
			Trace: append([]analysis.DependEvent(nil), t.trace...),
		},
		Counters:  make(map[string]map[string]*workload.CountersSnapshot, len(t.counters)),
		Durations: make(map[string]sim.Time, len(t.durations)),
	}
	for _, tb := range t.cfg.Spec.Testbeds {
		p.Shard.Testbeds = append(p.Shard.Testbeds, tb.Name)
	}
	for tb, m := range t.counters {
		p.Counters[tb] = m
	}
	for tb, d := range t.durations {
		p.Durations[tb] = d
	}
	s.mu.Unlock()
	return p, nil
}

// WaitPartial blocks until the keyspace completes, then exports its shard
// partial. A zero timeout waits indefinitely. The binaries wait with
// WaitKeyspace and write the partial at drain time instead.
//
// Test seam: TestMultiTenantShardedChaos and TestShardedPartialsMerge.
func (s *Sink) WaitPartial(key string, timeout time.Duration) (*Partial, error) {
	if _, err := s.WaitKeyspace(key, timeout); err != nil {
		return nil, err
	}
	return s.Partial(key)
}

// MergePartials folds sink-shard partials of one campaign into the full
// campaign's SinkReport. spec is the FULL campaign stream spec; the partials
// must agree on campaign and keyspace, and their testbed subsets must
// disjointly cover the spec (validated by analysis.MergeAggregates, which
// also reconstructs the order-sensitive Table 4 state from the shards'
// depend traces).
func MergePartials(spec analysis.StreamSpec, parts []*Partial) (*SinkReport, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("collector: merge of zero partials")
	}
	shards := make([]analysis.ShardAggregates, len(parts))
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("collector: nil partial %d", i)
		}
		if p.Campaign != parts[0].Campaign || p.Keyspace != parts[0].Keyspace {
			return nil, fmt.Errorf("collector: partial %d is from a different campaign "+
				"(keyspace %q, seed %d vs keyspace %q, seed %d)", i,
				p.Keyspace, p.Campaign.Seed, parts[0].Keyspace, parts[0].Campaign.Seed)
		}
		shards[i] = p.Shard
	}
	agg, err := analysis.MergeAggregates(spec, shards)
	if err != nil {
		return nil, err
	}
	rep := &SinkReport{
		Agg:       agg,
		Counters:  make(map[string]map[string]*workload.Counters),
		Durations: make(map[string]sim.Time),
	}
	for _, p := range parts {
		for tb, m := range p.Counters {
			if _, dup := rep.Counters[tb]; dup {
				return nil, fmt.Errorf("collector: testbed %q counters in more than one partial", tb)
			}
			rep.Counters[tb] = make(map[string]*workload.Counters, len(m))
			for node, snap := range m {
				c, err := workload.RestoreCounters(snap)
				if err != nil {
					return nil, fmt.Errorf("collector: counters for %s/%s: %w", tb, node, err)
				}
				rep.Counters[tb][node] = c
			}
		}
		for tb, d := range p.Durations {
			rep.Durations[tb] = d
		}
	}
	return rep, nil
}
