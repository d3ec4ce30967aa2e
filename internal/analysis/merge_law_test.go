package analysis

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// streamSubset folds only the named testbeds of the campaign through a
// fresh sub-spec streamer (TraceDepend on via SubSpec), in epoch-sized
// watermark steps, optionally checkpoint/restoring mid-way to prove the
// trace survives a crash. Returns the shard partial a sharded sink would
// ship to the merge tier.
func streamSubset(t *testing.T, c *synthCampaign, names []string, epoch sim.Time, crashAt int) ShardAggregates {
	t.Helper()
	sub, err := SubSpec(c.spec, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < len(c.spec.Testbeds) && !sub.TraceDepend {
		t.Fatalf("SubSpec(%v) did not enable TraceDepend", names)
	}
	s, err := NewStreamer(sub)
	if err != nil {
		t.Fatal(err)
	}
	type cursor struct{ r, e int }
	cur := make(map[shardKey]*cursor)
	var keys []shardKey
	for _, tb := range sub.Testbeds {
		for _, node := range append(append([]string{}, tb.PANUs...), tb.NAP) {
			key := shardKey{tb.Name, node}
			cur[key] = &cursor{}
			keys = append(keys, key)
		}
	}
	step := 0
	for upTo := epoch; upTo < c.horizon+2*epoch; upTo += epoch {
		for _, key := range keys {
			cu := cur[key]
			rs, es := c.reports[key], c.entries[key]
			r0 := cu.r
			for cu.r < len(rs) && rs[cu.r].At <= upTo {
				cu.r++
			}
			e0 := cu.e
			for cu.e < len(es) && es[cu.e].At <= upTo {
				cu.e++
			}
			if err := s.Ingest(key.testbed, key.node, rs[r0:cu.r], es[e0:cu.e], upTo); err != nil {
				t.Fatal(err)
			}
		}
		step++
		if crashAt > 0 && step == crashAt {
			// Kill the shard sink: everything not in the checkpoint is gone,
			// and the restored streamer must carry the depend trace forward.
			s, err = RestoreStreamer(sub, checkpointJSON(t, s))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	agg := s.Finalize()
	return ShardAggregates{Testbeds: names, Agg: agg.Snapshot(), Trace: s.DependTrace()}
}

// TestMergeAggregatesMatchesSingleStreamer is the sharded-sink merge law:
// splitting a campaign's testbeds across independent streamers and merging
// their partials reproduces the single full-spec streamer bit for bit —
// including the order-sensitive Table 4 Welford state, reconstructed from
// the shards' depend traces.
func TestMergeAggregatesMatchesSingleStreamer(t *testing.T) {
	c := genCampaign(400)
	ref, _ := c.stream(t, 30*sim.Minute)
	refSnap := ref.Snapshot()

	for _, crashAt := range []int{0, 7} {
		pr := streamSubset(t, c, []string{"random"}, 30*sim.Minute, crashAt)
		pl := streamSubset(t, c, []string{"realistic"}, 30*sim.Minute, 0)
		merged, err := MergeAggregates(c.spec, []ShardAggregates{pr, pl})
		if err != nil {
			t.Fatal(err)
		}
		if got := merged.Snapshot(); !reflect.DeepEqual(got, refSnap) {
			t.Errorf("crashAt=%d: merged shard partials diverge from the single streamer", crashAt)
		}
		// Order of partials must not matter.
		merged2, err := MergeAggregates(c.spec, []ShardAggregates{pl, pr})
		if err != nil {
			t.Fatal(err)
		}
		if got := merged2.Snapshot(); !reflect.DeepEqual(got, refSnap) {
			t.Errorf("crashAt=%d: merge is order-dependent", crashAt)
		}
	}
}

// TestMergeAggregatesSinglePartial pins the passthrough: one partial
// covering the whole campaign merges to itself, trace optional.
func TestMergeAggregatesSinglePartial(t *testing.T) {
	c := genCampaign(150)
	ref, _ := c.stream(t, time30())
	snap := ref.Snapshot()
	merged, err := MergeAggregates(c.spec, []ShardAggregates{
		{Testbeds: []string{"random", "realistic"}, Agg: snap}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Snapshot(), snap) {
		t.Error("single-partial merge is not a passthrough")
	}
}

func time30() sim.Time { return 30 * sim.Minute }

// TestMergeAggregatesGuards pins the loud-failure contract: overlapping or
// missing coverage, unknown testbeds, and shards without a trace are
// refused rather than silently mis-merged.
func TestMergeAggregatesGuards(t *testing.T) {
	c := genCampaign(60)
	pr := streamSubset(t, c, []string{"random"}, time30(), 0)
	pl := streamSubset(t, c, []string{"realistic"}, time30(), 0)

	if _, err := MergeAggregates(c.spec, nil); err == nil {
		t.Error("merge of zero partials must fail")
	}
	if _, err := MergeAggregates(c.spec, []ShardAggregates{pr}); err == nil {
		t.Error("partial coverage must fail")
	}
	if _, err := MergeAggregates(c.spec, []ShardAggregates{pr, pr}); err == nil {
		t.Error("overlapping coverage must fail")
	}
	bad := pr
	bad.Testbeds = []string{"bogus"}
	if _, err := MergeAggregates(c.spec, []ShardAggregates{bad, pl}); err == nil {
		t.Error("unknown testbed must fail")
	}
	traceless := pr
	traceless.Trace = nil
	if pr.Agg.Depend.Failures > 0 {
		if _, err := MergeAggregates(c.spec, []ShardAggregates{traceless, pl}); err == nil {
			t.Error("multi-shard merge without a depend trace must fail")
		}
	}
	noAgg := pr
	noAgg.Agg = nil
	if _, err := MergeAggregates(c.spec, []ShardAggregates{noAgg, pl}); err == nil {
		t.Error("partial without aggregates must fail")
	}
}

// TestSubSpecGuards pins SubSpec's validation and rank preservation.
func TestSubSpecGuards(t *testing.T) {
	c := genCampaign(1)
	if _, err := SubSpec(c.spec, []string{"random", "random"}); err == nil {
		t.Error("duplicate subset testbed must fail")
	}
	if _, err := SubSpec(c.spec, []string{"nope"}); err == nil {
		t.Error("unknown subset testbed must fail")
	}
	// Subset order comes from the full spec, not the request.
	sub, err := SubSpec(c.spec, []string{"realistic", "random"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Testbeds[0].Name != "random" || sub.Testbeds[1].Name != "realistic" {
		t.Errorf("SubSpec does not preserve full-spec order: %v", sub.Testbeds)
	}
	if sub.TraceDepend {
		t.Error("full-coverage subset should not force TraceDepend")
	}
}
