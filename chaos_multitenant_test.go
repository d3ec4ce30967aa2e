package btpan

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/testbed"
)

// The multi-tenant chaos test: three concurrent campaigns collected through
// a horizontally sharded sink pair (shard 0 hosts every campaign's random
// testbed, shard 1 every realistic one), under fault injection, with shard 0
// killed and restarted from its checkpoints mid-storm and one campaign
// driven over its ingest quota on shard 0. The quota offender is shed with a
// typed over-quota Reject — durably, across the shard restart — while the
// other campaigns' merged reports stay byte-identical to their
// single-process streaming references. scripts/chaos_multitenant.sh is the
// real-OS-process version of this test.

// TestMultiTenantShardedChaos is the PR's acceptance test; see the file
// comment for the topology and the promises under test.
func TestMultiTenantShardedChaos(t *testing.T) {
	full := testbed.CampaignStreamSpec()
	camps := []struct {
		key string
		cfg CampaignConfig
	}{
		{"alpha", CampaignConfig{Seed: 7, Duration: equivDuration(), Scenario: ScenarioSIRAsMasking, Streaming: true}},
		{"bravo", CampaignConfig{Seed: 11, Duration: equivDuration(), Scenario: ScenarioSIRAsMasking, Streaming: true}},
		{"hog", CampaignConfig{Seed: 13, Duration: equivDuration(), Scenario: ScenarioSIRAsMasking, Streaming: true}},
	}

	// Single-process streaming references for the campaigns that complete.
	want := make(map[string]string)
	for _, c := range camps[:2] {
		want[c.key] = flatBytes(streamingPlane.run(t, c.cfg))
	}

	// Shard i hosts testbed names[i] of every campaign, each keyspace with
	// its own checkpoint file; the hog campaign gets a small batch quota on
	// shard 0 only — its realistic half on shard 1 must stay untouched.
	names := []string{"random", "realistic"}
	ckptDir := t.TempDir()
	mkShard := func(i int, addr string) *collector.Sink {
		var kss []collector.KeyspaceConfig
		for _, c := range camps {
			sub, err := analysis.SubSpec(full, []string{names[i]})
			if err != nil {
				t.Fatal(err)
			}
			ks := collector.KeyspaceConfig{
				Key: c.key, Campaign: c.cfg.ID(), Spec: sub,
				CheckpointPath: filepath.Join(ckptDir, fmt.Sprintf("%s-shard%d.ckpt", c.key, i)),
			}
			if i == 0 && c.key == "hog" {
				ks.MaxBatches = 12
			}
			kss = append(kss, ks)
		}
		s, err := collector.NewSink(collector.SinkConfig{
			Addr: addr, Keyspaces: kss, CheckpointEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	shard0 := mkShard(0, "127.0.0.1:0")
	addr0 := shard0.Addr()
	shard1 := mkShard(1, "127.0.0.1:0")
	defer shard1.Close()

	// Six agents: every campaign's random shard at shard 0, realistic at
	// shard 1, all under drop/duplicate/reorder injection. The hog random
	// agent is expected to be shed: give it a short Finish timeout.
	errs := make(chan error, 2*len(camps))
	var faultSeed uint64 = 40
	for _, c := range camps {
		randomOpts, realisticOpts := testbed.CampaignOptions(c.cfg.Seed, c.cfg.Scenario, c.cfg.Duration)
		finishTimeout := 120 * time.Second
		if c.key == "hog" {
			finishTimeout = 5 * time.Second
		}
		ac := collector.AgentConfig{Addr: addr0, Keyspace: c.key,
			Fault:    collector.FaultConfig{Seed: faultSeed, Drop: 0.05, Duplicate: 0.05, Reorder: 0.1},
			RetryMin: 10 * time.Millisecond, RetryMax: 100 * time.Millisecond,
			RetrySeed: c.cfg.Seed, StallTimeout: 150 * time.Millisecond}
		acB := ac
		acB.Addr = shard1.Addr()
		acB.Fault.Seed++
		faultSeed += 2
		go func() { errs <- runAgent(c.cfg, randomOpts, ac, finishTimeout, 0) }()
		go func() { errs <- runAgent(c.cfg, realisticOpts, acB, 120*time.Second, 0) }()
	}

	// Kill shard 0 mid-storm — but only once it has made durable progress
	// AND quarantined the hog, so the restart must preserve both.
	deadline := time.Now().Add(120 * time.Second)
	for {
		applied, _, _ := shard0.Stats()
		hogQuarantined := false
		for _, km := range shard0.Metrics().Keyspaces {
			if km.Key == "hog" && km.Quarantined {
				hogQuarantined = true
			}
		}
		if applied >= 8 && hogQuarantined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 never reached kill conditions (applied %d, hog quarantined %v)",
				applied, hogQuarantined)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := shard0.Abort(); err != nil {
		t.Fatal(err)
	}
	shard0 = mkShard(0, addr0)
	defer shard0.Close()

	// The restarted shard must still be shedding the hog (quarantine rides
	// in the checkpoint; a restart cannot silently re-admit the offender).
	for _, km := range shard0.Metrics().Keyspaces {
		if km.Key == "hog" && !km.Quarantined {
			t.Error("shard 0 restart dropped the hog quarantine")
		}
	}

	// Collect every agent: all succeed except the hog's random shard, which
	// must have been shed with the typed over-quota reject.
	hogShed := false
	for range 2 * len(camps) {
		err := <-errs
		if err != nil && strings.HasPrefix(err.Error(), "shard hog/random: ") {
			hogShed = true
			if !strings.Contains(err.Error(), collector.RejectOverQuota) {
				t.Errorf("hog/random failed without the typed over-quota reject: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !hogShed {
		t.Error("hog/random finished despite its quota quarantine")
	}

	// The two clean campaigns merge byte-identically to their references.
	for _, c := range camps[:2] {
		p0, err := shard0.WaitPartial(c.key, 120*time.Second)
		if err != nil {
			t.Fatalf("%s partial from shard 0: %v", c.key, err)
		}
		p1, err := shard1.WaitPartial(c.key, 120*time.Second)
		if err != nil {
			t.Fatalf("%s partial from shard 1: %v", c.key, err)
		}
		rep, err := collector.MergePartials(full, []*collector.Partial{p0, p1})
		if err != nil {
			t.Fatal(err)
		}
		// The bytes carry the sequence-gap and dropped-record counters, so
		// the storm must not leak into the aggregates either.
		sameBytes(t, "campaign "+c.key, want[c.key], flatBytes(reportResult(t, c.cfg, rep)))
	}

	// Isolation: the hog's realistic half (on the untouched shard) completed
	// normally, while its random half stays quarantined and incomplete.
	if _, err := shard1.WaitPartial("hog", 120*time.Second); err != nil {
		t.Errorf("hog's realistic half should complete untouched: %v", err)
	}
	for _, km := range shard0.Metrics().Keyspaces {
		if km.Key == "hog" && km.Complete {
			t.Error("hog's random half completed despite the quota quarantine")
		}
	}
}
