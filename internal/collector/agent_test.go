package collector

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// TestAgentShipsBacklogInWatermarkOrder: an agent whose sink is
// unreachable buffers a multi-node, multi-flush backlog at two flush
// cadences, ingested one node after another. What it ships on its next
// session is merged by watermark, each stream in sequence order and ties
// in roster order, so a sink folding the frames as they arrive never pends
// more than one round of flushes. A go-back-N rewind after a partial acknowledgement resends
// the unacknowledged rest in the same merge, and so does a restarted agent
// replaying its spill log.
func TestAgentShipsBacklogInWatermarkOrder(t *testing.T) {
	spec := tpSpec()
	spec.Testbeds = spec.Testbeds[:1]
	tb := spec.Testbeds[0]
	roster := tb.Nodes()
	rank := make(map[string]int, len(roster))
	byNode := make(map[string][]tpBatch, len(roster))
	for i, node := range roster {
		rank[node] = i
	}
	// Every stream flushes hourly except the second, which flushes every
	// half hour. round is the record count of each hour's flushes over the
	// testbed's streams: what the sink may hold pending at once.
	round := make(map[sim.Time]int)
	for _, b := range tpBatches(24) {
		if b.testbed != tb.Name {
			continue
		}
		round[b.watermark] += len(b.reports) + len(b.entries)
		if b.node == roster[1] {
			half := b.watermark - sim.Hour/2
			nr := sort.Search(len(b.reports), func(i int) bool { return b.reports[i].At >= half })
			ne := sort.Search(len(b.entries), func(i int) bool { return b.entries[i].At >= half })
			byNode[b.node] = append(byNode[b.node], tpBatch{testbed: b.testbed, node: b.node,
				reports: b.reports[:nr], entries: b.entries[:ne], watermark: half})
			b.reports, b.entries = b.reports[nr:], b.entries[ne:]
		}
		byNode[b.node] = append(byNode[b.node], b)
	}
	bound := 0
	for _, n := range round {
		bound = max(bound, n)
	}
	type frame struct {
		node string
		seq  uint64
	}
	var merged []frame
	for _, node := range roster {
		for i := range byNode[node] {
			merged = append(merged, frame{node, uint64(i + 1)})
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		wi := byNode[merged[i].node][merged[i].seq-1].watermark
		wj := byNode[merged[j].node][merged[j].seq-1].watermark
		return wi < wj || (wi == wj && rank[merged[i].node] < rank[merged[j].node])
	})
	// unacked is the merge without the frames a's streams have acknowledged.
	unacked := func(a *Agent) []frame {
		var out []frame
		for _, f := range merged {
			if f.seq > a.streams[f.node].acked {
				out = append(out, f)
			}
		}
		return out
	}
	check := func(label string, got []bufEntry, want []frame) {
		t.Helper()
		g := make([]frame, len(got))
		for i, e := range got {
			g[i] = frame{e.b.Node, e.b.Seq}
		}
		if fmt.Sprint(g) != fmt.Sprint(want) {
			t.Fatalf("%s ships\n %v\nwant the watermark merge\n %v", label, g, want)
		}
	}

	spill := t.TempDir()
	newAgent := func() *Agent {
		a, err := NewAgent(AgentConfig{
			Addr:    "127.0.0.1:1", // reserved port: every dial fails fast
			Testbed: tb.Name, Nodes: roster, SpillDir: spill,
			RetryMin: 10 * time.Millisecond, StallTimeout: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := newAgent()
	defer a.Close()
	for _, node := range roster {
		for _, b := range byNode[node] {
			if err := a.Ingest(b.testbed, b.node, b.reports, b.entries, b.watermark); err != nil {
				t.Fatal(err)
			}
		}
	}
	var doneSent bool
	first, _ := a.collect(&doneSent)
	check("the first session", first, merged)

	str, err := analysis.NewStreamer(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range first {
		if _, err := str.OfferSeq(e.b.Testbed, e.b.Node, e.b.Reports, e.b.Entries, e.b.Watermark, e.b.Seq); err != nil {
			t.Fatal(err)
		}
		if p := str.Pending(); p > bound {
			t.Fatalf("after frame %d (%s seq %d) the sink pends %d records, more than one round of flushes (%d)",
				i+1, e.b.Node, e.b.Seq, p, bound)
		}
	}

	// go-back-N: part of one stream is acknowledged, then the stall
	// rewinds every send cursor.
	a.mu.Lock()
	a.pruneLocked(a.streams[roster[0]], 5)
	a.lastProgress = time.Time{}
	a.mu.Unlock()
	a.maybeStallReset()
	resend, _ := a.collect(&doneSent)
	check("the go-back-N resend", resend, unacked(a))
	if sent, retransmits := a.Stats(); sent != len(first)+len(resend) || retransmits != len(resend) {
		t.Errorf("sent %d with %d retransmits, want %d with %d",
			sent, retransmits, len(first)+len(resend), len(resend))
	}

	a.Close()
	b := newAgent()
	defer b.Close()
	replayed, _ := b.collect(&doneSent)
	check("the spill log replay", replayed, unacked(b))
}
