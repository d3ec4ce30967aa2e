package analysis

import (
	"reflect"
	"testing"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/sim"
	"repro/internal/workload"
)

// synthCampaign builds a deterministic two-testbed dataset shaped like a
// real campaign: per-node time-ordered report/entry streams with ties within
// and across testbeds, masked reports, recoveries, and NAP entries.
type synthCampaign struct {
	reports map[shardKey][]core.UserReport
	entries map[shardKey][]core.SystemEntry
	spec    StreamSpec
	horizon sim.Time
}

func genCampaign(n int) *synthCampaign {
	c := &synthCampaign{
		reports: make(map[shardKey][]core.UserReport),
		entries: make(map[shardKey][]core.SystemEntry),
		spec: StreamSpec{Testbeds: []TestbedSpec{
			{Name: "random", Kind: core.WLRandom, NAP: "Giallo", PANUs: []string{"Verde", "Win", "Rosso"}},
			{Name: "realistic", Kind: core.WLRealistic, NAP: "Giallo", PANUs: []string{"Verde", "Win", "Rosso"}},
		}},
	}
	state := uint64(0xA5A5A5A55A5A5A5A)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	dists := []float64{0.5, 5, 7}
	for rank, tb := range c.spec.Testbeds {
		for _, node := range tb.PANUs {
			key := shardKey{tb.Name, node}
			at := sim.Time(0)
			for i := 0; i < n; i++ {
				// Steps of 0..240 s in whole seconds: ties across nodes and
				// testbeds are common, exercising the fold's tie order.
				at += sim.Time(next(241)) * sim.Second
				if next(3) == 0 {
					f := core.UserFailures()[next(len(core.UserFailures()))]
					r := core.UserReport{
						At: at, Testbed: tb.Name, Node: node, Failure: f,
						Workload:  tb.Kind,
						SentPkts:  next(12000),
						DistanceM: dists[next(len(dists))],
						Masked:    next(10) == 0,
					}
					if rank == 1 {
						r.App = core.Apps()[next(5)]
					}
					if next(4) != 0 {
						r.Recovered = true
						r.Recovery = core.RecoveryActions()[next(core.NumRecoveryActions)]
						r.TTR = sim.Time(next(600)) * sim.Second
					}
					c.reports[key] = append(c.reports[key], r)
				} else {
					src := core.SysSources()[next(len(core.SysSources()))]
					c.entries[key] = append(c.entries[key], core.SystemEntry{
						At: at, Testbed: tb.Name, Node: node, Source: src,
					})
				}
				if at > c.horizon {
					c.horizon = at
				}
			}
		}
		// The NAP logs entries too (no reports).
		key := shardKey{tb.Name, tb.NAP}
		at := sim.Time(0)
		for i := 0; i < n; i++ {
			at += sim.Time(next(241)) * sim.Second
			c.entries[key] = append(c.entries[key], core.SystemEntry{
				At: at, Testbed: tb.Name, Node: tb.NAP,
				Source: core.SysSources()[next(len(core.SysSources()))],
			})
			if at > c.horizon {
				c.horizon = at
			}
		}
	}
	return c
}

// retained computes every output through the retained (slice-based)
// pipeline, replicating the CampaignResult conventions: per-testbed evidence
// into one shared Evidence, AllReports = random block then realistic block.
func (c *synthCampaign) retained() (*Table2, *Table3, *Dependability, []Bar, []Fig4Row, *Scalars, int, int) {
	ev := coalesce.NewEvidence()
	var all, realistic, random []core.UserReport
	entriesTotal := 0
	for _, tb := range c.spec.Testbeds {
		perR := make(map[string][]core.UserReport)
		perE := make(map[string][]core.SystemEntry)
		var tbReports []core.UserReport
		for _, node := range tb.PANUs {
			key := shardKey{tb.Name, node}
			perR[node] = c.reports[key]
			perE[node] = c.entries[key]
			tbReports = append(tbReports, c.reports[key]...)
			entriesTotal += len(c.entries[key])
		}
		perE[tb.NAP] = c.entries[shardKey{tb.Name, tb.NAP}]
		entriesTotal += len(perE[tb.NAP])
		BuildEvidenceWithRadius(ev, perR, perE, tb.NAP, coalesce.PaperWindow, coalesce.RelateRadius)
		logging.SortUserReports(tbReports)
		if tb.Kind == core.WLRandom {
			random = tbReports
		} else {
			realistic = tbReports
		}
		all = append(all, tbReports...)
	}
	t2 := BuildTable2(ev)
	t3 := BuildTable3(all)
	dep := BuildDependability("SIRAs", all, c.horizon)
	f3c := Fig3cApplications(realistic)
	f4 := Fig4PerHost(all)
	sc := BuildScalars(random, realistic, map[string]*workload.Counters{}, entriesTotal)
	return t2, t3, dep, f3c, f4, sc, len(all), entriesTotal
}

// stream pushes the same dataset through a Streamer in epoch-sized batches
// with per-shard watermarks, returning the folded aggregates and the largest
// pending backlog observed right after any epoch completed.
func (c *synthCampaign) stream(t *testing.T, epoch sim.Time) (*Aggregates, int) {
	t.Helper()
	s, err := NewStreamer(c.spec)
	if err != nil {
		t.Fatal(err)
	}
	type cursor struct{ r, e int }
	cur := make(map[shardKey]*cursor)
	var keys []shardKey
	for _, tb := range c.spec.Testbeds {
		for _, node := range tb.Nodes() {
			key := shardKey{tb.Name, node}
			cur[key] = &cursor{}
			keys = append(keys, key)
		}
	}
	maxPending := 0
	for upTo := epoch; upTo < c.horizon+2*epoch; upTo += epoch {
		// Scrambled-ish shard order: reverse every other epoch, as TCP
		// arrival order would scramble it.
		ordered := append([]shardKey{}, keys...)
		if (upTo/epoch)%2 == 0 {
			for i, j := 0, len(ordered)-1; i < j; i, j = i+1, j-1 {
				ordered[i], ordered[j] = ordered[j], ordered[i]
			}
		}
		for _, key := range ordered {
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
		if p := s.Pending(); p > maxPending {
			maxPending = p
		}
	}
	return s.Finalize(), maxPending
}

// TestStreamerMatchesRetainedExactly is the streaming == retained
// equivalence proof at the aggregation layer: identical Table 2, Table 3,
// dependability column (bit-identical floats), figures, scalars and item
// counts on a fixed synthetic campaign, regardless of epoch granularity.
func TestStreamerMatchesRetainedExactly(t *testing.T) {
	c := genCampaign(600)
	t2, t3, dep, f3c, f4, sc, nu, ne := c.retained()
	for _, epoch := range []sim.Time{500 * sim.Second, sim.Hour, 13 * sim.Hour} {
		agg, _ := c.stream(t, epoch)
		if !reflect.DeepEqual(agg.Table2(), t2) {
			t.Errorf("epoch %v: Table 2 diverges", epoch)
		}
		if !reflect.DeepEqual(agg.Table3(), t3) {
			t.Errorf("epoch %v: Table 3 diverges", epoch)
		}
		if got := agg.Dependability("SIRAs"); !reflect.DeepEqual(got, dep) {
			t.Errorf("epoch %v: dependability diverges:\n got %+v\nwant %+v", epoch, got, dep)
		}
		if !reflect.DeepEqual(agg.Fig3c(), f3c) {
			t.Errorf("epoch %v: Fig 3c diverges", epoch)
		}
		if !reflect.DeepEqual(agg.Fig4(), f4) {
			t.Errorf("epoch %v: Fig 4 diverges", epoch)
		}
		if got := agg.Scalars(map[string]*workload.Counters{}); !reflect.DeepEqual(got, sc) {
			t.Errorf("epoch %v: scalars diverge:\n got %+v\nwant %+v", epoch, got, sc)
		}
		if gu, ge, _ := agg.DataItems(); gu != nu || ge != ne {
			t.Errorf("epoch %v: items %d/%d, want %d/%d", epoch, gu, ge, nu, ne)
		}
	}
}

// TestStreamerPendingBounded pins the memory story: with a fixed epoch, the
// pending backlog right after each epoch is bounded by per-epoch volume, not
// by how long the campaign has been running.
func TestStreamerPendingBounded(t *testing.T) {
	c := genCampaign(600)
	_, maxPending := c.stream(t, sim.Hour)
	total := 0
	for _, rs := range c.reports {
		total += len(rs)
	}
	for _, es := range c.entries {
		total += len(es)
	}
	// With ~2-minute mean inter-event steps, one hour holds a few dozen
	// events per shard; a tenth of the campaign is a generous ceiling that
	// still proves records are not being retained.
	if maxPending > total/10 {
		t.Errorf("pending backlog %d of %d records — streaming is retaining", maxPending, total)
	}
}

// TestStreamerReorderTolerance pins the cross-connection hardening: batch
// reordering above the fold horizon is repaired (identical aggregates),
// while records at or below an already-folded instant are rejected as an
// error instead of corrupting the fold or panicking.
func TestStreamerReorderTolerance(t *testing.T) {
	spec := StreamSpec{Testbeds: []TestbedSpec{
		{Name: "x", Kind: core.WLRandom, NAP: "n", PANUs: []string{"a"}},
	}}
	mk := func(at sim.Time) core.UserReport {
		return core.UserReport{At: at, Testbed: "x", Node: "a",
			Failure: core.UFPacketLoss, Recovered: true,
			Recovery: core.RAIPSocketReset, TTR: sim.Second}
	}

	// In-order reference.
	ref, err := NewStreamer(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []sim.Time{10 * sim.Second, 20 * sim.Second, 30 * sim.Second} {
		if err := ref.Ingest("x", "a", []core.UserReport{mk(at)}, nil, at); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.Finalize().Dependability("s")

	// Two batches swapped before any watermark advances past them: the
	// shard re-sorts and the outputs are identical.
	swapped, err := NewStreamer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := swapped.Ingest("x", "a", []core.UserReport{mk(20 * sim.Second)}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := swapped.Ingest("x", "a",
		[]core.UserReport{mk(10 * sim.Second), mk(30 * sim.Second)}, nil, 30*sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := swapped.Finalize().Dependability("s"); !reflect.DeepEqual(got, want) {
		t.Errorf("reordered ingest diverges:\n got %+v\nwant %+v", got, want)
	}

	// Sequenced ingest handles the cross-connection race a multi-flush
	// daemon creates: the second flush (later records, higher watermark)
	// arrives first. Without sequencing its watermark would let the fold
	// pass the first flush's records; with it, the early batch parks until
	// the gap fills and the outputs match the in-order reference.
	seqd, err := NewStreamer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := seqd.OfferSeq("x", "n", nil, nil, sim.Hour, 1); err != nil || !ok {
		t.Fatal(ok, err) // NAP shard ready: only "a"'s watermark gates the fold
	}
	if ok, err := seqd.OfferSeq("x", "a",
		[]core.UserReport{mk(20 * sim.Second), mk(30 * sim.Second)}, nil, sim.Hour, 2); err != nil || !ok {
		t.Fatal(ok, err)
	}
	if seqd.Pending() == 0 {
		t.Fatal("out-of-sequence batch was applied instead of parked")
	}
	if ok, err := seqd.OfferSeq("x", "a",
		[]core.UserReport{mk(10 * sim.Second)}, nil, 30*sim.Second, 1); err != nil || !ok {
		t.Fatal(ok, err)
	}
	if got := seqd.Finalize().Dependability("s"); !reflect.DeepEqual(got, want) {
		t.Errorf("sequenced reordered ingest diverges:\n got %+v\nwant %+v", got, want)
	}

	// A replayed sequence number — applied or parked — is a duplicate:
	// ignored, not applied twice, and not a peer error.
	replay, err := NewStreamer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := replay.OfferSeq("x", "a", []core.UserReport{mk(10 * sim.Second)}, nil, sim.Second, 1); err != nil || !ok {
		t.Fatal(ok, err)
	}
	if ok, err := replay.OfferSeq("x", "a", []core.UserReport{mk(10 * sim.Second)}, nil, sim.Second, 1); err != nil || ok {
		t.Errorf("replayed batch seq: OfferSeq = (%v, %v), want (false, nil)", ok, err)
	}
	if ok, err := replay.OfferSeq("x", "a", nil, nil, sim.Minute, 3); err != nil || !ok {
		t.Fatal(ok, err)
	}
	if ok, err := replay.OfferSeq("x", "a", nil, nil, sim.Minute, 3); err != nil || ok {
		t.Errorf("replayed parked seq: OfferSeq = (%v, %v), want (false, nil)", ok, err)
	}
	if got := replay.Finalize().Reports; got != 1 {
		t.Errorf("replay folded %d reports, want 1", got)
	}

	// A lost batch (unfilled sequence gap) does not take its successors
	// with it: Finalize recovers the parked batches and reports the gap.
	gap, err := NewStreamer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := gap.OfferSeq("x", "a", []core.UserReport{mk(10 * sim.Second)}, nil, 15*sim.Second, 1); err != nil || !ok {
		t.Fatal(ok, err)
	}
	// seq 2 is lost in transit; seq 3 parks.
	if ok, err := gap.OfferSeq("x", "a", []core.UserReport{mk(40 * sim.Second)}, nil, sim.Minute, 3); err != nil || !ok {
		t.Fatal(ok, err)
	}
	gapAgg := gap.Finalize()
	if gapAgg.SeqGaps != 1 {
		t.Errorf("SeqGaps = %d, want 1", gapAgg.SeqGaps)
	}
	if gapAgg.Reports != 2 {
		t.Errorf("recovered %d reports, want 2 (parked batch lost with the gap)", gapAgg.Reports)
	}
	// Ingest after Finalize fails loudly instead of dropping records.
	if err := gap.Ingest("x", "a", []core.UserReport{mk(2 * sim.Minute)}, nil, 2*sim.Minute); err == nil {
		t.Error("post-finalize ingest accepted")
	}

	// A record below an already-folded instant is unmergeable: error, and
	// prior aggregates stay intact.
	late, err := NewStreamer(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Ingest("x", "a", []core.UserReport{mk(10 * sim.Second)}, nil, sim.Hour); err != nil {
		t.Fatal(err)
	}
	if err := late.Ingest("x", "n", nil, nil, sim.Hour); err != nil {
		t.Fatal(err) // both shards at 1h: the 10s report is folded now
	}
	if err := late.Ingest("x", "a", []core.UserReport{mk(20 * sim.Second)}, nil, sim.Hour); err == nil {
		t.Error("record below the fold horizon accepted")
	}
	if got := late.Finalize().Dependability("s"); got.Failures != 1 {
		t.Errorf("late ingest corrupted aggregates: %+v", got)
	}
}

// TestStreamerGuards pins config validation and undeclared-stream errors.
func TestStreamerGuards(t *testing.T) {
	if _, err := NewStreamer(StreamSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := NewStreamer(StreamSpec{
		Testbeds: []TestbedSpec{{Name: "x", NAP: "n", PANUs: []string{"a"}}},
		Window:   sim.Second, Radius: 2 * sim.Second,
	}); err == nil {
		t.Error("radius > window accepted")
	}
	s, err := NewStreamer(StreamSpec{
		Testbeds: []TestbedSpec{{Name: "x", NAP: "n", PANUs: []string{"a"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("x", "ghost", nil, nil, sim.Second); err == nil {
		t.Error("undeclared stream accepted")
	}
	if err := s.Ingest("x", "a", nil, nil, sim.Second); err != nil {
		t.Errorf("declared stream rejected: %v", err)
	}
}
