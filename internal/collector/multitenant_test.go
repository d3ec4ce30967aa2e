package collector

import (
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The multi-tenant suite pins the sink's tenancy promises: per-keyspace
// isolation (a neighbor flooding, failing or finishing never perturbs your
// tables), typed admission control (quota quarantine sheds exactly the
// offender, and lifting it loses nothing), late registration on an always-on
// sink, graceful drain, the sharded-sink merge law at the collector level,
// and the resume-handshake cursor semantics stream by stream.

// waitUntil polls cond to true within d.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// ksAgents builds one agent per tpSpec testbed addressed at a keyspace and
// ingests the batches (buffered; shipping happens on the uplink goroutines).
func ksAgents(t *testing.T, addr, keyspace string, campaign CampaignID, batches []tpBatch) []*Agent {
	t.Helper()
	spec := tpSpec()
	agents := make([]*Agent, 0, len(spec.Testbeds))
	for i, tb := range spec.Testbeds {
		a, err := NewAgent(AgentConfig{
			Addr: addr, Campaign: campaign, Keyspace: keyspace, Testbed: tb.Name,
			Nodes:        tb.Nodes(),
			RetryMin:     10 * time.Millisecond,
			RetryMax:     50 * time.Millisecond,
			RetrySeed:    campaign.Seed*10 + uint64(i),
			StallTimeout: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	byName := map[string]*Agent{"alpha": agents[0], "beta": agents[1]}
	for _, b := range batches {
		if err := byName[b.testbed].Ingest(b.testbed, b.node, b.reports, b.entries, b.watermark); err != nil {
			t.Fatal(err)
		}
	}
	return agents
}

// finishKSAgents declares every shard Done and waits for its Fin.
func finishKSAgents(t *testing.T, agents []*Agent, timeout time.Duration) {
	t.Helper()
	spec := tpSpec()
	for i, tb := range spec.Testbeds {
		counters := make(map[string]*workload.CountersSnapshot)
		for _, node := range tb.PANUs {
			counters[node] = tpCounters(node)
		}
		if err := agents[i].Finish(counters, 24*sim.Hour, timeout); err != nil {
			t.Fatalf("finish %s: %v", tb.Name, err)
		}
	}
}

// TestMultiTenantIsolation hosts two campaigns on one sink and checks that
// each keyspace's tables are bit-identical to its own single-process
// reference — shared transport, zero cross-talk. A third campaign whose
// beta testbed never ships stays open: the pending counts of the metrics
// and of the memory budget are exactly its alpha records, the completed
// keyspaces pending nothing.
func TestMultiTenantIsolation(t *testing.T) {
	batches := tpBatches(24)
	want := tpLocal(t, batches)
	campRed := CampaignID{Seed: 1, Duration: 24 * sim.Hour, Scenario: 1}
	campBlue := CampaignID{Seed: 2, Duration: 24 * sim.Hour, Scenario: 2}
	campOpen := CampaignID{Seed: 5, Duration: 24 * sim.Hour, Scenario: 1}
	var alpha []tpBatch
	alphaRecords := 0
	for _, b := range batches {
		if b.testbed == "alpha" {
			alpha = append(alpha, b)
			alphaRecords += len(b.reports) + len(b.entries)
		}
	}

	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Keyspaces: []KeyspaceConfig{
		{Key: "red", Campaign: campRed, Spec: tpSpec()},
		{Key: "blue", Campaign: campBlue, Spec: tpSpec()},
		{Key: "open", Campaign: campOpen, Spec: tpSpec()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	red := ksAgents(t, sink.Addr(), "red", campRed, batches)
	blue := ksAgents(t, sink.Addr(), "blue", campBlue, batches)
	for _, a := range ksAgents(t, sink.Addr(), "open", campOpen, alpha) {
		defer a.Close()
	}
	finishKSAgents(t, red, 30*time.Second)
	finishKSAgents(t, blue, 30*time.Second)

	for _, key := range []string{"red", "blue"} {
		rep, err := sink.WaitKeyspace(key, 30*time.Second)
		if err != nil {
			t.Fatalf("wait %s: %v", key, err)
		}
		if got := rep.Agg.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("keyspace %s diverged from the single-process reference", key)
		}
	}
	waitUntil(t, 10*time.Second, "the open keyspace's alpha batches", func() bool {
		for _, km := range sink.Metrics().Keyspaces {
			if km.Key == "open" {
				return km.AppliedBatches == len(alpha)
			}
		}
		return false
	})
	m := sink.Metrics()
	if len(m.Keyspaces) != 3 {
		t.Fatalf("metrics list %d keyspaces, want 3", len(m.Keyspaces))
	}
	for _, km := range m.Keyspaces {
		open := km.Key == "open"
		if km.Complete == open || km.Quarantined {
			t.Errorf("keyspace %s: complete=%v quarantined=%v", km.Key, km.Complete, km.Quarantined)
		}
		pending := 0
		if open {
			pending = alphaRecords
		}
		if km.PendingRecords != pending {
			t.Errorf("keyspace %s pends %d records, want %d", km.Key, km.PendingRecords, pending)
		}
	}
	if m.PendingRecords != alphaRecords || sink.PendingRecords() != alphaRecords {
		t.Errorf("sink pends %d records (metrics) and %d (memory budget), want %d",
			m.PendingRecords, sink.PendingRecords(), alphaRecords)
	}
}

// TestQuotaQuarantineLiftedByRestart drives one keyspace over its batch
// quota while a neighbor runs clean: the offender is quarantined with typed
// over-quota rejects and the neighbor's tables stay bit-identical. The
// quarantine is checkpointed when it trips. A restart with the same quota
// keeps shedding; a restart with a larger quota lifts it, and the
// quarantined campaign completes with the tables of a clean run (the
// agents kept everything unacknowledged).
func TestQuotaQuarantineLiftedByRestart(t *testing.T) {
	batches := tpBatches(24)
	want := tpLocal(t, batches)
	campHog := CampaignID{Seed: 3, Duration: 24 * sim.Hour, Scenario: 1}
	campGood := CampaignID{Seed: 4, Duration: 24 * sim.Hour, Scenario: 1}
	ckpt := filepath.Join(t.TempDir(), "hog.ckpt")
	hogKS := func(maxBatches int) KeyspaceConfig {
		return KeyspaceConfig{Key: "hog", Campaign: campHog, Spec: tpSpec(),
			MaxBatches: maxBatches, CheckpointPath: ckpt}
	}
	quarantined := func(s *Sink) bool {
		for _, km := range s.Metrics().Keyspaces {
			if km.Key == "hog" {
				return km.Quarantined
			}
		}
		t.Fatal("hog keyspace missing from metrics")
		return false
	}

	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Keyspaces: []KeyspaceConfig{
		hogKS(30),
		{Key: "good", Campaign: campGood, Spec: tpSpec()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	addr := sink.Addr()

	hog := ksAgents(t, addr, "hog", campHog, batches)
	good := ksAgents(t, addr, "good", campGood, batches)

	// The neighbor completes untouched while the hog is being shed.
	finishKSAgents(t, good, 30*time.Second)
	rep, err := sink.WaitKeyspace("good", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Agg.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Error("clean neighbor diverged while another keyspace was quarantined")
	}

	waitUntil(t, 10*time.Second, "hog quarantine + typed rejects", func() bool {
		if !quarantined(sink) {
			return false
		}
		n, last := hog[0].Rejects()
		m, lastB := hog[1].Rejects()
		if n == 0 && m == 0 {
			return false
		}
		if last == nil {
			last = lastB
		}
		return last != nil && last.Code == RejectOverQuota
	})
	if err := sink.Abort(); err != nil {
		t.Fatal(err)
	}

	// Same quota: the restored counters still exceed it.
	same, err := NewSink(SinkConfig{Addr: addr, Keyspaces: []KeyspaceConfig{hogKS(30)}})
	if err != nil {
		t.Fatal(err)
	}
	if !quarantined(same) {
		t.Error("a restart with the same quota re-admitted the quarantined keyspace")
	}
	if err := same.Abort(); err != nil {
		t.Fatal(err)
	}

	// Larger quota: the quarantine lifts and nothing was lost.
	larger, err := NewSink(SinkConfig{Addr: addr, Keyspaces: []KeyspaceConfig{hogKS(1 << 20)}})
	if err != nil {
		t.Fatal(err)
	}
	defer larger.Close()
	if quarantined(larger) {
		t.Fatal("a restart with a larger quota kept the keyspace quarantined")
	}
	finishKSAgents(t, hog, 30*time.Second)
	rep, err = larger.WaitKeyspace("hog", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Agg.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Error("quarantined campaign lost or corrupted data across the shed and restart")
	}
}

// TestRegisterLate starts agents against an always-on sink before their
// campaign exists: they absorb retryable unknown-campaign rejects, the
// campaign is registered, and collection completes bit-identically.
func TestRegisterLate(t *testing.T) {
	batches := tpBatches(24)
	want := tpLocal(t, batches)
	camp := CampaignID{Seed: 5, Duration: 24 * sim.Hour, Scenario: 1}

	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", AllowEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	agents := ksAgents(t, sink.Addr(), "late", camp, batches)
	waitUntil(t, 10*time.Second, "unknown-campaign rejects", func() bool {
		n, last := agents[0].Rejects()
		return n > 0 && last.Code == RejectUnknownCampaign
	})

	if err := sink.Register(KeyspaceConfig{Key: "late", Campaign: camp, Spec: tpSpec()}); err != nil {
		t.Fatal(err)
	}
	finishKSAgents(t, agents, 30*time.Second)
	rep, err := sink.WaitKeyspace("late", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Agg.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Error("late-registered campaign diverged from the single-process reference")
	}
}

// TestRegisterRejectsNegativeQuota refuses a keyspace whose quota is
// negative, at registration and at startup, instead of reading it as "no
// quota".
func TestRegisterRejectsNegativeQuota(t *testing.T) {
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", AllowEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	for _, ks := range []KeyspaceConfig{
		{Key: "bytes", Spec: tpSpec(), MaxBytes: -1},
		{Key: "batches", Spec: tpSpec(), MaxBatches: -3},
	} {
		if err := sink.Register(ks); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("Register(%q) = %v, want a negative-quota error", ks.Key, err)
		}
		if sink.Metrics().Keyspaces != nil {
			t.Fatalf("a refused keyspace %q was hosted", ks.Key)
		}
		if s, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Keyspaces: []KeyspaceConfig{ks}}); err == nil {
			s.Close()
			t.Errorf("NewSink accepted keyspace %q with a negative quota", ks.Key)
		}
	}
	if err := sink.Register(KeyspaceConfig{Key: "unlimited", Spec: tpSpec()}); err != nil {
		t.Errorf("zero quotas (unlimited) refused: %v", err)
	}
}

// TestDrainRejects checks graceful drain: live unfinished sessions get a
// retryable draining Reject, and so does every new hello.
func TestDrainRejects(t *testing.T) {
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces: []KeyspaceConfig{{Spec: tpSpec()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	conn, _ := rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
	defer conn.Close()

	if err := sink.Drain(); err != nil {
		t.Fatal(err)
	}
	if !sink.Metrics().Draining {
		t.Error("metrics do not report draining")
	}

	// The live session is told to go away, retryably.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("read on live session after drain: %v", err)
	}
	if fr.Kind != KindReject || fr.Reject.Code != RejectDraining || !fr.Reject.Retryable() {
		t.Fatalf("live session got %v (%+v), want retryable draining reject", fr.Kind, fr.Reject)
	}

	// A fresh hello is refused the same way.
	conn2, err := net.Dial("tcp", sink.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	spec := tpSpec().Testbeds[0]
	hello := &Hello{Session: SessionVersion, Testbed: spec.Name, Nodes: spec.Nodes()}
	if err := writeControl(conn2, KindHello, hello); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr, err = ReadFrame(conn2)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Kind != KindReject || fr.Reject.Code != RejectDraining {
		t.Fatalf("new hello got %v (%+v), want draining reject", fr.Kind, fr.Reject)
	}
}

// TestShardedPartialsMerge splits the campaign across two sink shards (one
// testbed each, specs built with SubSpec so the depend trace is recorded),
// exports each shard's Partial, and checks MergePartials reproduces the
// unsharded sink's report bit for bit — the collector-level merge law.
func TestShardedPartialsMerge(t *testing.T) {
	batches := tpBatches(24)
	want := tpLocal(t, batches)
	camp := CampaignID{Seed: 6, Duration: 24 * sim.Hour, Scenario: 1}
	full := tpSpec()

	sinks := make([]*Sink, 2)
	for i, tb := range []string{"alpha", "beta"} {
		sub, err := analysis.SubSpec(full, []string{tb})
		if err != nil {
			t.Fatal(err)
		}
		sinks[i], err = NewSink(SinkConfig{Addr: "127.0.0.1:0",
			Keyspaces: []KeyspaceConfig{{Key: "camp", Campaign: camp, Spec: sub}}})
		if err != nil {
			t.Fatal(err)
		}
		defer sinks[i].Close()
	}

	var wg sync.WaitGroup
	for i, tb := range full.Testbeds {
		var shard []tpBatch
		for _, b := range batches {
			if b.testbed == tb.Name {
				shard = append(shard, b)
			}
		}
		a, err := NewAgent(AgentConfig{
			Addr: sinks[i].Addr(), Campaign: camp, Keyspace: "camp", Testbed: tb.Name,
			Nodes:        tb.Nodes(),
			RetryMin:     10 * time.Millisecond,
			StallTimeout: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range shard {
			if err := a.Ingest(b.testbed, b.node, b.reports, b.entries, b.watermark); err != nil {
				t.Fatal(err)
			}
		}
		counters := make(map[string]*workload.CountersSnapshot)
		for _, node := range tb.PANUs {
			counters[node] = tpCounters(node)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Finish(counters, 24*sim.Hour, 30*time.Second); err != nil {
				t.Errorf("finish %s: %v", tb.Name, err)
			}
		}()
	}
	wg.Wait()

	parts := make([]*Partial, 2)
	for i, s := range sinks {
		p, err := s.WaitPartial("camp", 30*time.Second)
		if err != nil {
			t.Fatalf("partial from shard %d: %v", i, err)
		}
		parts[i] = p
	}
	rep, err := MergePartials(full, parts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Agg.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Error("merged shards diverged from the single-sink reference")
	}
	for _, tb := range full.Testbeds {
		if rep.Durations[tb.Name] != 24*sim.Hour {
			t.Errorf("testbed %s duration %v", tb.Name, rep.Durations[tb.Name])
		}
		for _, node := range tb.PANUs {
			if !reflect.DeepEqual(rep.Counters[tb.Name][node].Snapshot(), tpCounters(node)) {
				t.Errorf("counters for %s/%s diverged through the merge", tb.Name, node)
			}
		}
	}
}

// rawSession opens a raw protocol session for one tpSpec testbed and returns
// the connection plus the sink's first Ack, which answers the Hello.
func rawSession(t *testing.T, addr, keyspace string, campaign CampaignID, testbed string) (net.Conn, *Ack) {
	t.Helper()
	var spec *analysis.TestbedSpec
	full := tpSpec()
	for i := range full.Testbeds {
		if full.Testbeds[i].Name == testbed {
			spec = &full.Testbeds[i]
		}
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello := &Hello{Session: SessionVersion, Campaign: campaign, Keyspace: keyspace, Testbed: testbed,
		Nodes: spec.Nodes()}
	if err := writeControl(conn, KindHello, hello); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Kind != KindAck {
		t.Fatalf("handshake answered with %v (%+v), want an ack", fr.Kind, fr.Reject)
	}
	return conn, fr.Ack
}

// sendSeq sends alpha stream node's batch seq on a raw session: one system
// entry inside hour seq, watermark at the hour's end.
func sendSeq(t *testing.T, conn net.Conn, node string, seq uint64) {
	t.Helper()
	wm := sim.Time(seq) * sim.Hour
	b := &Batch{Testbed: "alpha", Node: node, Seq: seq, Watermark: wm,
		Entries: []core.SystemEntry{{At: wm - sim.Hour + sim.Second,
			Testbed: "alpha", Node: node, Source: core.SysSource(1)}}}
	if err := WriteBatch(conn, b); err != nil {
		t.Fatal(err)
	}
}

// readAck reads the next frame of a raw session, which must be an Ack.
func readAck(t *testing.T, conn net.Conn) *Ack {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Kind != KindAck {
		t.Fatalf("session answered %v (%+v), want an ack", fr.Kind, fr.Reject)
	}
	return fr.Ack
}

// readCursor reads the next frame of a raw session, which must be an Ack
// of one cursor, and returns that cursor.
func readCursor(t *testing.T, conn net.Conn) StreamCursor {
	t.Helper()
	ack := readAck(t, conn)
	if len(ack.Cursors) != 1 {
		t.Fatalf("ack %+v, want one cursor", ack)
	}
	return ack.Cursors[0]
}

// TestResumeCursors drives raw protocol sessions and pins the resume
// handshake's cursor semantics per stream: cumulative acknowledgement under
// interleaving, a stream held back behind a sequence gap, and a duplicate
// hello landing on a still-live session.
func TestResumeCursors(t *testing.T) {
	// One scripted step: open a fresh session and check its resume cursors,
	// or send seq for node on session sess and check the cumulative ack. A
	// send that leaves the cursor where the session last told it gets no
	// ack (noAck): the session's next ack, checked by a later step, comes
	// first.
	type step struct {
		hello       bool
		node        string
		seq         uint64
		sess        int               // session index the send goes on
		wantAck     uint64            // after a send
		alsoAck     map[string]uint64 // other cursors the send's ack tells
		noAck       bool              // the send must not be acknowledged
		wantCursors map[string]uint64 // after a hello
	}
	zero := map[string]uint64{"a1": 0, "a2": 0, "napA": 0}
	cases := []struct {
		name  string
		steps []step
	}{
		{name: "interleaved streams ack independently", steps: []step{
			{hello: true, wantCursors: zero},
			{node: "a1", seq: 1, wantAck: 1},
			{node: "a2", seq: 1, wantAck: 1},
			{node: "napA", seq: 1, wantAck: 1},
			{node: "a1", seq: 2, wantAck: 2},
			{hello: true, wantCursors: map[string]uint64{"a1": 2, "a2": 1, "napA": 1}},
		}},
		{name: "stream resumes behind the cumulative ack", steps: []step{
			{hello: true, wantCursors: zero},
			{node: "a1", seq: 1, wantAck: 1},
			// Seq 3 arrives before 2: parked, cursor stays at 1, which the
			// session already told: no ack.
			{node: "a1", seq: 3, noAck: true},
			{hello: true, wantCursors: map[string]uint64{"a1": 1, "a2": 0, "napA": 0}},
			// Filling the gap drains the parked batch: cursor jumps to 3.
			{node: "a1", seq: 2, sess: 1, wantAck: 3},
			{hello: true, wantCursors: map[string]uint64{"a1": 3, "a2": 0, "napA": 0}},
			// The first session's next ack is a2's: the parked frame got
			// none. It also tells a1's cursor, which the second session
			// moved past what the first one told.
			{node: "a2", seq: 1, sess: 0, wantAck: 1, alsoAck: map[string]uint64{"a1": 3}},
		}},
		{name: "duplicate hello on a live session", steps: []step{
			{hello: true, wantCursors: zero},
			{node: "a1", seq: 1, wantAck: 1},
			// Second hello while the first session is still live: the sink
			// serves both; cursors reflect everything acknowledged so far.
			{hello: true, wantCursors: map[string]uint64{"a1": 1, "a2": 0, "napA": 0}},
			{node: "a1", seq: 2, sess: 1, wantAck: 2},
			// The ORIGINAL session keeps working too.
			{node: "a1", seq: 3, sess: 0, wantAck: 3},
			{hello: true, wantCursors: map[string]uint64{"a1": 3, "a2": 0, "napA": 0}},
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
				Keyspaces: []KeyspaceConfig{{Spec: tpSpec()}}})
			if err != nil {
				t.Fatal(err)
			}
			defer sink.Close()
			var conns []net.Conn
			defer func() {
				for _, c := range conns {
					c.Close()
				}
			}()
			sent := 0
			for _, st := range tc.steps {
				if st.hello {
					conn, res := rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
					conns = append(conns, conn)
					got := make(map[string]uint64, len(res.Cursors))
					for _, c := range res.Cursors {
						got[c.Node] = c.Seq
					}
					if !reflect.DeepEqual(got, st.wantCursors) {
						t.Fatalf("session %d resume cursors %v, want %v", len(conns)-1, got, st.wantCursors)
					}
					continue
				}
				sendSeq(t, conns[st.sess], st.node, st.seq)
				sent++
				if st.noAck {
					// Nothing answers the frame: wait until the sink has
					// offered it, so a later step on another session
					// cannot overtake it.
					for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
						if applied, duplicates, _ := sink.Stats(); applied+duplicates == sent {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("send %s/%d never reached the sink", st.node, st.seq)
						}
					}
					continue
				}
				want := map[string]uint64{st.node: st.wantAck}
				for node, seq := range st.alsoAck {
					want[node] = seq
				}
				ack := readAck(t, conns[st.sess])
				got := make(map[string]uint64, len(ack.Cursors))
				for _, c := range ack.Cursors {
					got[c.Node] = c.Seq
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("send %s/%d answered %+v, want ack cursors %v", st.node, st.seq, ack, want)
				}
			}
		})
	}
}

// TestCheckpointBytesCounted: a campaign keyspace's CheckpointBytes metric
// grows by the size of each checkpoint file it writes.
func TestCheckpointBytesCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sink.ckpt")
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", CheckpointEvery: 2,
		Keyspaces: []KeyspaceConfig{{Spec: tpSpec(), CheckpointPath: path}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	conn, _ := rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
	defer conn.Close()
	var want int64
	for seq := uint64(1); seq <= 6; seq++ {
		sendSeq(t, conn, "a1", seq)
		if seq%2 == 1 {
			continue
		}
		readAck(t, conn) // the frame's checkpoint has landed
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		want += st.Size()
		if got := sink.Metrics().Keyspaces[0].CheckpointBytes; got != want {
			t.Fatalf("after frame %d the keyspace counts %d checkpoint bytes, want %d", seq, got, want)
		}
	}
}

// TestAckOnlyOnProgress pins the told-cursor rule on a checkpointing sink
// (PROTOCOL.md §6): a stream's cursor moves only at checkpoints, and a
// session tells a node's cursor only when it differs from the one the
// session last told — in an earlier Ack or in the first one, which answers
// the Hello. Every cursor a checkpoint moved goes out in one Ack.
func TestAckOnlyOnProgress(t *testing.T) {
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", CheckpointEvery: 4,
		Keyspaces: []KeyspaceConfig{{Spec: tpSpec(), CheckpointPath: filepath.Join(t.TempDir(), "sink.ckpt")}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	// collect reads len(want) acks, each of which must carry want's nodes
	// and seqs in order: frames on a session are answered in order, so
	// every ack the earlier frames earned is read by then. told holds the
	// session's told cursors, which no ack may repeat or move back.
	collect := func(conn net.Conn, told map[string]uint64, want [][]StreamCursor) {
		t.Helper()
		for i, w := range want {
			got := readAck(t, conn).Cursors
			for _, c := range got {
				if c.Seq <= told[c.Node] {
					t.Errorf("ack %s/%d does not advance the told cursor %d", c.Node, c.Seq, told[c.Node])
				}
				told[c.Node] = c.Seq
			}
			match := len(got) == len(w)
			for j := 0; match && j < len(w); j++ {
				match = got[j].Node == w[j].Node && got[j].Seq == w[j].Seq
			}
			if !match {
				t.Fatalf("ack %d carries %+v, want %+v", i, got, w)
			}
		}
	}
	cursors := func(ack *Ack) map[string]uint64 {
		m := make(map[string]uint64)
		for _, c := range ack.Cursors {
			m[c.Node] = c.Seq
		}
		return m
	}

	first, res := rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
	defer first.Close()
	told := cursors(res)
	// One stream: a checkpoint every fourth frame, one ack per checkpoint.
	for seq := uint64(1); seq <= 16; seq++ {
		sendSeq(t, first, "a1", seq)
	}
	collect(first, told, [][]StreamCursor{{{Node: "a1", Seq: 4}}, {{Node: "a1", Seq: 8}},
		{{Node: "a1", Seq: 12}}, {{Node: "a1", Seq: 16}}})

	// Two streams interleaved: each checkpoint moves both cursors, and the
	// frame that triggers it is answered with one ack carrying both.
	for seq := uint64(1); seq <= 4; seq++ {
		sendSeq(t, first, "a2", seq)
		sendSeq(t, first, "napA", seq)
	}
	collect(first, told, [][]StreamCursor{{{Node: "a2", Seq: 2}, {Node: "napA", Seq: 2}},
		{{Node: "a2", Seq: 4}, {Node: "napA", Seq: 4}}})

	// A resumed session: its first ack tells a1=16, a2=4, napA=4. Four
	// retransmitted duplicates trigger a checkpoint that moves nothing, so
	// no ack repeats the first one; the next four frames move a1 to 20.
	second, res := rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
	defer second.Close()
	told = cursors(res)
	if want := map[string]uint64{"a1": 16, "a2": 4, "napA": 4}; !reflect.DeepEqual(told, want) {
		t.Fatalf("resume cursors %v, want %v", told, want)
	}
	for seq := uint64(13); seq <= 20; seq++ {
		sendSeq(t, second, "a1", seq)
	}
	collect(second, told, [][]StreamCursor{{{Node: "a1", Seq: 20}}})
}

// TestSessionBoundToAdmittedStream pins that a session feeds only the
// testbed its Hello was admitted for (PROTOCOL.md §4): a data frame
// labelled with another testbed of the keyspace is a protocol violation,
// so it is counted as rejected, earns no Ack, closes the session, and
// leaves the other testbed's cursors where they were.
func TestSessionBoundToAdmittedStream(t *testing.T) {
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Keyspaces: []KeyspaceConfig{{Spec: tpSpec()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	conn, _ := rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
	defer conn.Close()
	sendSeq(t, conn, "a1", 1)
	if c := readCursor(t, conn); c.Node != "a1" || c.Seq != 1 {
		t.Fatalf("ack %+v, want a1/1", c)
	}

	wm := sim.Hour
	foreign := &Batch{Testbed: "beta", Node: "b1", Seq: 1, Watermark: wm,
		Entries: []core.SystemEntry{{At: wm - sim.Second, Testbed: "beta", Node: "b1",
			Source: core.SysSource(1)}}}
	if err := WriteBatch(conn, foreign); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if fr, err := ReadFrame(conn); err == nil {
		t.Fatalf("a frame for another testbed was answered with %v (%+v), want the session closed",
			fr.Kind, fr.Ack)
	}
	if applied, _, rejected := sink.Stats(); applied != 1 || rejected != 1 {
		t.Errorf("applied %d, rejected %d; want 1 and 1", applied, rejected)
	}
	beta, res := rawSession(t, sink.Addr(), "", CampaignID{}, "beta")
	defer beta.Close()
	for _, c := range res.Cursors {
		if c.Seq != 0 {
			t.Errorf("beta resume cursor %s/%d, want 0: the alpha session fed beta", c.Node, c.Seq)
		}
	}
}

// TestDoneMustNameSessionStreams pins PROTOCOL.md §4's Done rule on both
// planes: a Done's finals name each of the session's nodes exactly once,
// and a district's one final counts every work item of its range.
// Completion tests only the nodes the finals name, so a Done short of a
// node would finalize the keyspace without that node's data. Anything else
// is answered with a fatal protocol Reject naming the fault, counted as
// rejected, and never recorded.
func TestDoneMustNameSessionStreams(t *testing.T) {
	alpha := tpSpec()
	alpha.Testbeds = alpha.Testbeds[:1]
	dc := bareDistrict(3, "")
	for _, tc := range []struct {
		name     string
		district bool
		final    []StreamCursor
		want     string
	}{
		{name: "subset", final: []StreamCursor{{Node: "a1", Seq: 1}}, want: `"a2"`},
		{name: "duplicate", final: []StreamCursor{{Node: "a1", Seq: 1}, {Node: "a2"}, {Node: "a1", Seq: 1},
			{Node: "napA"}}, want: `"a1" twice`},
		{name: "foreign", final: []StreamCursor{{Node: "a1", Seq: 1}, {Node: "a2"}, {Node: "napA"},
			{Node: "b1"}}, want: `"b1"`},
		{name: "district short", district: true, final: []StreamCursor{{Node: "0:3", Seq: 2}}, want: "names 2 work items"},
		{name: "district long", district: true, final: []StreamCursor{{Node: "0:3", Seq: 4}}, want: "names 4 work items"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SinkConfig{Addr: "127.0.0.1:0", Keyspaces: []KeyspaceConfig{{Spec: alpha}}}
			id, stream := nsKey{}, "alpha"
			if tc.district {
				cfg = SinkConfig{Addr: "127.0.0.1:0", Districts: []DistrictConfig{dc}}
				id, stream = nsKey{district: true, key: dc.Key}, "0:3"
			}
			sink, err := NewSink(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sink.Close()
			var conn net.Conn
			if tc.district {
				conn, _ = districtSession(t, sink.Addr(), dc)
				for seq := uint64(1); seq <= 3; seq++ {
					sendItem(t, conn, dc, seq)
					readAck(t, conn)
				}
			} else {
				conn, _ = rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
				sendSeq(t, conn, "a1", 1)
				readAck(t, conn)
			}
			defer conn.Close()
			if err := writeControl(conn, KindDone, &Done{Testbed: stream, Final: tc.final}); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			fr, err := ReadFrame(conn)
			if err != nil {
				t.Fatalf("Done answered with %v, want a Reject", err)
			}
			if fr.Kind != KindReject || fr.Reject.Code != RejectProtocol || fr.Reject.Retryable() ||
				!strings.Contains(fr.Reject.Reason, tc.want) {
				t.Fatalf("Done answered %v %+v, want a fatal protocol Reject with %s", fr.Kind, fr.Reject, tc.want)
			}
			if _, err := ReadFrame(conn); err == nil {
				t.Error("the session went on after the Reject")
			}
			if _, _, rejected := sink.Stats(); rejected != 1 {
				t.Errorf("%d frames rejected, want 1", rejected)
			}
			sink.mu.Lock()
			finals := len(sink.tenants[id].finals)
			sink.mu.Unlock()
			if finals != 0 {
				t.Errorf("the refused Done's finals were recorded")
			}
			if _, err := sink.wait(id, 50*time.Millisecond); err == nil {
				t.Error("the keyspace completed on a refused Done")
			}
		})
	}
}
