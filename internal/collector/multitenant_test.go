package collector

import (
	"net"
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
// reference — shared transport, zero cross-talk.
func TestMultiTenantIsolation(t *testing.T) {
	batches := tpBatches(24)
	want := tpLocal(t, batches)
	campRed := CampaignID{Seed: 1, Duration: 24 * sim.Hour, Scenario: 1}
	campBlue := CampaignID{Seed: 2, Duration: 24 * sim.Hour, Scenario: 2}

	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Keyspaces: []KeyspaceConfig{
		{Key: "red", Campaign: campRed, Spec: tpSpec()},
		{Key: "blue", Campaign: campBlue, Spec: tpSpec()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	red := ksAgents(t, sink.Addr(), "red", campRed, batches)
	blue := ksAgents(t, sink.Addr(), "blue", campBlue, batches)
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
	m := sink.Metrics()
	if len(m.Keyspaces) != 2 {
		t.Fatalf("metrics list %d keyspaces, want 2", len(m.Keyspaces))
	}
	for _, km := range m.Keyspaces {
		if !km.Complete || km.Quarantined {
			t.Errorf("keyspace %s: complete=%v quarantined=%v", km.Key, km.Complete, km.Quarantined)
		}
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
	hello := &Hello{Testbed: spec.Name, Nodes: spec.Nodes()}
	if err := writeControl(conn2, frameHello, hello); err != nil {
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
// the connection plus the sink's Resume answer.
func rawSession(t *testing.T, addr, keyspace string, campaign CampaignID, testbed string) (net.Conn, *Resume) {
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
	hello := &Hello{Campaign: campaign, Keyspace: keyspace, Testbed: testbed,
		Nodes: spec.Nodes()}
	if err := writeControl(conn, frameHello, hello); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Kind != KindResume {
		t.Fatalf("handshake answered with %v (%+v), want resume", fr.Kind, fr.Reject)
	}
	return conn, fr.Resume
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
			// The first session's next ack is a2's: the parked frame got none.
			{node: "a2", seq: 1, sess: 0, wantAck: 1},
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
				if st.noAck {
					continue
				}
				if ack := readAck(t, conns[st.sess]); ack.Node != st.node || ack.Seq != st.wantAck {
					t.Fatalf("send %s/%d answered %+v, want ack seq %d", st.node, st.seq, ack, st.wantAck)
				}
			}
		})
	}
}

// TestAckOnlyOnProgress pins the told-cursor rule on a checkpointing sink
// (PROTOCOL.md §6): a stream's cursor moves only at checkpoints, and a
// session acknowledges a node only when its cursor differs from the one
// the session last told — in an Ack or in the Resume.
func TestAckOnlyOnProgress(t *testing.T) {
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", CheckpointEvery: 4,
		Keyspaces: []KeyspaceConfig{{Spec: tpSpec(), CheckpointPath: filepath.Join(t.TempDir(), "sink.ckpt")}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	// collect reads acks until want's last one arrives: frames on a session
	// are answered in order, so every ack the earlier frames earned is
	// read by then.
	collect := func(conn net.Conn, want []Ack) {
		t.Helper()
		var got []Ack
		for len(got) < len(want) {
			got = append(got, *readAck(t, conn))
		}
		last := make(map[string]uint64)
		for _, a := range got {
			if a.Seq <= last[a.Node] {
				t.Errorf("ack %s/%d does not advance the node's cursor %d", a.Node, a.Seq, last[a.Node])
			}
			last[a.Node] = a.Seq
		}
		for i := range want {
			if got[i].Node != want[i].Node || got[i].Seq != want[i].Seq {
				t.Fatalf("acks %+v, want %+v", got, want)
			}
		}
	}

	first, _ := rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
	defer first.Close()
	// One stream: a checkpoint every fourth frame, one ack per checkpoint.
	for seq := uint64(1); seq <= 16; seq++ {
		sendSeq(t, first, "a1", seq)
	}
	collect(first, []Ack{{Node: "a1", Seq: 4}, {Node: "a1", Seq: 8}, {Node: "a1", Seq: 12}, {Node: "a1", Seq: 16}})

	// Two streams interleaved: each checkpoint moves both cursors; the
	// frame that triggers it acks its own node at once, the other node's
	// next frame acks that one. napA's last move has no further a2 frame
	// behind it, so a2's final cursor 4 stays untold on this session.
	for seq := uint64(1); seq <= 4; seq++ {
		sendSeq(t, first, "a2", seq)
		sendSeq(t, first, "napA", seq)
	}
	collect(first, []Ack{{Node: "napA", Seq: 2}, {Node: "a2", Seq: 2}, {Node: "napA", Seq: 4}})

	// A resumed session: the Resume tells a1=16, a2=4, napA=4. Four
	// retransmitted duplicates trigger a checkpoint that moves nothing, so
	// no ack repeats the Resume; the next four frames move a1 to 20.
	second, res := rawSession(t, sink.Addr(), "", CampaignID{}, "alpha")
	defer second.Close()
	for _, c := range res.Cursors {
		if want := map[string]uint64{"a1": 16, "a2": 4, "napA": 4}[c.Node]; c.Seq != want {
			t.Fatalf("resume cursor %s/%d, want %d", c.Node, c.Seq, want)
		}
	}
	for seq := uint64(13); seq <= 20; seq++ {
		sendSeq(t, second, "a1", seq)
	}
	collect(second, []Ack{{Node: "a1", Seq: 20}})
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
	if a := readAck(t, conn); a.Node != "a1" || a.Seq != 1 {
		t.Fatalf("ack %+v, want a1/1", a)
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
