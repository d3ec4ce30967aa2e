package collector

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// The framing suite pins how the session buffers meet the wire, one
// connection end at a time over net.Pipe: a pipe Write blocks until the
// peer has read all of it, so every underlying write the end under test
// makes is counted exactly. The sink answers the Hello, and a read that
// filled many data frames, with one write of their Acks and flushes Reject
// and Fin at once; the agent puts a send pass on the wire in one write, flushing
// early only before a fault-injected delay; every underlying write runs
// under a fresh deadline; and ReadFrame decodes the same frames through
// any read pattern.

// countConn is a connection end that records each underlying write and
// whether a fresh write deadline preceded it.
type countConn struct {
	net.Conn
	mu       sync.Mutex
	writes   [][]byte
	deadline time.Time
	armed    bool // a deadline was set since the last write
	stale    int  // writes without a fresh deadline
}

// SetWriteDeadline records the deadline and arms the next write.
func (c *countConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline, c.armed = t, true
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// Write records p, counting it stale unless a deadline at least 4 s out
// was set since the previous write.
func (c *countConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if !c.armed || time.Until(c.deadline) < 4*time.Second {
		c.stale++
	}
	c.armed = false
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// snapshot returns the writes so far and the count of stale ones.
func (c *countConn) snapshot() ([][]byte, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...), c.stale
}

// writeFrames decodes one write's bytes into frames, for asserting what a
// single write carried.
func writeFrames(t *testing.T, w []byte) []*Frame {
	t.Helper()
	var out []*Frame
	r := bytes.NewReader(w)
	for {
		fr, err := ReadFrame(r)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("write does not hold whole frames: %v", err)
		}
		out = append(out, fr)
	}
}

// readN reads n frames from conn under a deadline, so a frame left in a
// buffer fails the test instead of hanging it.
func readN(t *testing.T, conn net.Conn, n int) []*Frame {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	out := make([]*Frame, n)
	for i := range out {
		fr, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("frame %d of %d: %v", i+1, n, err)
		}
		out[i] = fr
	}
	return out
}

// wireCampaign is the campaign of the pipe sink's keyspace.
var wireCampaign = CampaignID{Seed: 5, Duration: 24 * sim.Hour, Scenario: 1}

// pipeSink serves one session of a non-checkpointing sink over net.Pipe:
// it returns the agent's end and the counted sink end.
func pipeSink(t *testing.T) (*Sink, net.Conn, *countConn) {
	t.Helper()
	s, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces: []KeyspaceConfig{{Spec: tpSpec(), Campaign: wireCampaign}}})
	if err != nil {
		t.Fatal(err)
	}
	agent, end := net.Pipe()
	sc := &countConn{Conn: end}
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.serve(sc)
	}()
	t.Cleanup(func() {
		agent.Close()
		end.Close()
		<-served
		s.Close()
	})
	return s, agent, sc
}

// alphaHello opens a session for tpSpec's alpha testbed.
func alphaHello(t *testing.T, conn net.Conn) {
	t.Helper()
	spec := tpSpec().Testbeds[0]
	if err := writeControl(conn, KindHello, &Hello{Session: SessionVersion, Campaign: wireCampaign,
		Testbed: spec.Name, Nodes: spec.Nodes()}); err != nil {
		t.Fatal(err)
	}
}

// alphaFrames renders data frames seq 1..k of node a1 back to back.
func alphaFrames(t *testing.T, k int) []byte {
	t.Helper()
	var all []byte
	for i := 1; i <= k; i++ {
		f, err := encodeBatchFrame(&Batch{Node: "a1", Testbed: "alpha",
			Watermark: sim.Time(i) * sim.Hour, Seq: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, f...)
	}
	return all
}

// TestWireSinkAcksPerRead: K data frames that arrive in one read earn
// their K Acks in one sink write, in order, and the Ack that answered the
// Hello before them went out at once without further input.
func TestWireSinkAcksPerRead(t *testing.T) {
	const k = 8
	_, agent, sc := pipeSink(t)
	alphaHello(t, agent)
	if fr := readN(t, agent, 1)[0]; fr.Kind != KindAck || len(fr.Ack.Cursors) != 3 {
		t.Fatalf("handshake answered %v %+v, want an Ack of alpha's three cursors", fr.Kind, fr.Ack)
	}
	if _, err := agent.Write(alphaFrames(t, k)); err != nil {
		t.Fatal(err)
	}
	for i, fr := range readN(t, agent, k) {
		want := []StreamCursor{{Node: "a1", Seq: uint64(i + 1), Watermark: sim.Time(i+1) * sim.Hour}}
		if fr.Kind != KindAck || !reflect.DeepEqual(fr.Ack.Cursors, want) {
			t.Fatalf("frame %d: %v %+v, want Ack a1 seq %d", i, fr.Kind, fr.Ack, i+1)
		}
	}
	writes, stale := sc.snapshot()
	if len(writes) != 2 {
		t.Fatalf("sink made %d writes for the handshake and %d Acks, want 2", len(writes), k)
	}
	if n := len(writeFrames(t, writes[1])); n != k {
		t.Fatalf("the Ack write carried %d frames, want %d", n, k)
	}
	if stale != 0 {
		t.Fatalf("%d sink writes ran without a fresh deadline", stale)
	}
}

// TestWireSinkFinFlushesAcks: the Done that covers a stream is answered
// with Fin at once, in the same write as the Acks queued ahead of it.
func TestWireSinkFinFlushesAcks(t *testing.T) {
	const k = 4
	_, agent, sc := pipeSink(t)
	alphaHello(t, agent)
	readN(t, agent, 1)
	done, err := jsonFrame(KindDone, &Done{Testbed: "alpha", Duration: wireCampaign.Duration,
		Final: []StreamCursor{{Node: "a1", Seq: k}, {Node: "a2"}, {Node: "napA"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Write(append(alphaFrames(t, k), done...)); err != nil {
		t.Fatal(err)
	}
	got := readN(t, agent, k+1)
	if got[k].Kind != KindFin {
		t.Fatalf("last frame %v, want Fin", got[k].Kind)
	}
	writes, _ := sc.snapshot()
	if len(writes) != 2 || len(writeFrames(t, writes[1])) != k+1 {
		t.Fatalf("sink wrote %d times, want the handshake then the Acks with the Fin in one write", len(writes))
	}
}

// TestWireSinkRejectAtOnce: a Hello the sink refuses, and a live
// session a Drain turns away from another goroutine, both get their
// Reject without sending anything more.
func TestWireSinkRejectAtOnce(t *testing.T) {
	_, agent, _ := pipeSink(t)
	if err := writeControl(agent, KindHello, &Hello{Session: SessionVersion, Campaign: wireCampaign, Keyspace: "nosuch",
		Testbed: "alpha", Nodes: tpSpec().Testbeds[0].Nodes()}); err != nil {
		t.Fatal(err)
	}
	if fr := readN(t, agent, 1)[0]; fr.Kind != KindReject || fr.Reject.Code != RejectUnknownCampaign {
		t.Fatalf("unknown keyspace answered %v %+v, want an unknown-campaign Reject", fr.Kind, fr.Reject)
	}

	s, agent, _ := pipeSink(t)
	alphaHello(t, agent)
	readN(t, agent, 1)
	go s.Drain()
	if fr := readN(t, agent, 1)[0]; fr.Kind != KindReject || fr.Reject.Code != RejectDraining {
		t.Fatalf("drained session got %v %+v, want a draining Reject", fr.Kind, fr.Reject)
	}
}

// TestWireSinkFinFromAnotherGoroutine: Acks the session queued go out
// ahead of a Fin another goroutine sends, in one write and in order, and
// nothing is written before that.
func TestWireSinkFinFromAnotherGoroutine(t *testing.T) {
	agent, end := net.Pipe()
	defer agent.Close()
	sc := &countConn{Conn: end}
	sess := newSinkSession(sc)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := sess.send(KindAck, &Ack{Cursors: []StreamCursor{{Node: "a1", Seq: seq}}}); err != nil {
			t.Fatal(err)
		}
	}
	if writes, _ := sc.snapshot(); len(writes) != 0 {
		t.Fatalf("queued Acks made %d writes before any flush", len(writes))
	}
	go sess.send(KindFin, &Fin{})
	got := readN(t, agent, 4)
	for i, fr := range got[:3] {
		if fr.Kind != KindAck || fr.Ack.Cursors[0].Seq != uint64(i+1) {
			t.Fatalf("frame %d: %v %+v, want Ack seq %d", i, fr.Kind, fr.Ack, i+1)
		}
	}
	if got[3].Kind != KindFin {
		t.Fatalf("frame 3: %v, want Fin", got[3].Kind)
	}
	writes, stale := sc.snapshot()
	if len(writes) != 1 || stale != 0 {
		t.Fatalf("%d writes (%d stale), want one under a fresh deadline", len(writes), stale)
	}
	sess.end()
	if err := sess.send(KindFin, &Fin{}); err == nil {
		t.Fatal("send on an ended session succeeded")
	}
}

// passPlane is a plane with one stream "n" whose first send pass carries
// the given frames, and every pass offers done.
type passPlane struct {
	frames [][]byte
	done   *Done
	given  bool
}

func (p *passPlane) pruneLocked(st *sendState, acked uint64) { st.acked = acked }
func (p *passPlane) spawn(f func())                          { go f() }
func (p *passPlane) due() ([]bufEntry, *Done) {
	if p.given {
		return nil, p.done
	}
	p.given = true
	out := make([]bufEntry, len(p.frames))
	for i, f := range p.frames {
		out[i].raw = f
	}
	return out, p.done
}

// nodeBatch renders data frame seq of stream "n", padded with entries to
// about size bytes.
func nodeBatch(t *testing.T, seq uint64, size int) []byte {
	t.Helper()
	b := &Batch{Node: "n", Testbed: "tb", Watermark: sim.Time(seq) * sim.Hour, Seq: seq}
	for i := 0; i*64 < size; i++ {
		b.Entries = append(b.Entries, core.SystemEntry{At: b.Watermark - 1, Testbed: "tb", Node: "n",
			Source: core.SysSource(1), Detail: fmt.Sprintf("%d/%d %s", seq, i, strings.Repeat("x", 48))})
	}
	f, err := encodeBatchFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// pipeAgent starts one link session of p over net.Pipe with fault config
// fault and reads its Hello. It returns the link, the sink's end, the
// agent's counted end, and the channel the session's result arrives on.
func pipeAgent(t *testing.T, p plane, fault FaultConfig) (*link, net.Conn, *countConn, chan bool) {
	t.Helper()
	sinkEnd, end := net.Pipe()
	t.Cleanup(func() { sinkEnd.Close() })
	ac := &countConn{Conn: end}
	l := &link{hello: &Hello{Session: SessionVersion, Testbed: "tb", Nodes: []string{"n"}},
		sends: []*sendState{{node: "n"}}}
	l.init("", retryPolicy{}, time.Minute, fault)
	ended := make(chan bool, 1)
	go func() { ended <- l.session(p, ac) }()
	if fr := readN(t, sinkEnd, 1)[0]; fr.Kind != KindHello {
		t.Fatalf("session opened with %v, want Hello", fr.Kind)
	}
	return l, sinkEnd, ac, ended
}

// sessionEnd waits for the session's result, failing the test if the
// session is still running after a few seconds.
func sessionEnd(t *testing.T, ended chan bool) bool {
	t.Helper()
	select {
	case ok := <-ended:
		return ok
	case <-time.After(3 * time.Second):
		t.Fatal("session still running")
		return false
	}
}

// runPass runs one link session of p over net.Pipe with fault config
// fault, plays the sink's handshake, reads want data frames plus the Done
// when p has one, then releases the agent with Fin. It returns the data
// frames' sequence numbers in arrival order and the agent's counted end.
func runPass(t *testing.T, p *passPlane, fault FaultConfig, want int) ([]uint64, *countConn) {
	t.Helper()
	_, sinkEnd, ac, ended := pipeAgent(t, p, fault)
	if err := writeControl(sinkEnd, KindAck, &Ack{Cursors: []StreamCursor{{Node: "n"}}}); err != nil {
		t.Fatal(err)
	}
	n := want
	if p.done != nil {
		n++
	}
	var seqs []uint64
	for i, fr := range readN(t, sinkEnd, n) {
		switch {
		case fr.Kind == KindBatch:
			seqs = append(seqs, fr.Batch.Seq)
		case fr.Kind != KindDone || i != n-1:
			t.Fatalf("frame %d: %v, want data frames then one Done", i, fr.Kind)
		}
	}
	if err := writeControl(sinkEnd, KindFin, &Fin{}); err != nil {
		t.Fatal(err)
	}
	if !sessionEnd(t, ended) {
		t.Fatal("session did not report its first Ack")
	}
	return seqs, ac
}

// TestWireAgentPassIsOneWrite: the Hello is one write and a send pass of N
// data frames plus the Done is one more, every write under a fresh
// deadline.
func TestWireAgentPassIsOneWrite(t *testing.T) {
	const n = 10
	p := &passPlane{done: &Done{Testbed: "tb", Final: []StreamCursor{{Node: "n", Seq: n}}}}
	for seq := uint64(1); seq <= n; seq++ {
		p.frames = append(p.frames, nodeBatch(t, seq, 200))
	}
	seqs, ac := runPass(t, p, FaultConfig{}, n)
	if want := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("frames arrived as %v, want %v", seqs, want)
	}
	writes, stale := ac.snapshot()
	if len(writes) != 2 {
		t.Fatalf("agent made %d writes for a Hello and a pass, want 2", len(writes))
	}
	if got := len(writeFrames(t, writes[1])); got != n+1 {
		t.Fatalf("the pass write carried %d frames, want %d", got, n+1)
	}
	if stale != 0 {
		t.Fatalf("%d agent writes ran without a fresh deadline", stale)
	}
}

// TestWireAgentLargePassDeadlines: a pass larger than the write buffer,
// with one frame larger than the buffer on its own, spills into several
// underlying writes, each under a fresh deadline, and keeps its order.
func TestWireAgentLargePassDeadlines(t *testing.T) {
	const n = 12
	p := &passPlane{}
	for seq := uint64(1); seq <= n; seq++ {
		size := 3 << 10
		if seq == 5 {
			size = 2 * dataBufSize
		}
		p.frames = append(p.frames, nodeBatch(t, seq, size))
	}
	seqs, ac := runPass(t, p, FaultConfig{}, n)
	if want := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("frames arrived as %v, want %v", seqs, want)
	}
	writes, stale := ac.snapshot()
	if len(writes) < 4 {
		t.Fatalf("a pass of %d KiB made %d writes; the buffer never spilled", 64+2*dataBufSize>>10, len(writes))
	}
	if stale != 0 {
		t.Fatalf("%d of %d agent writes ran without a fresh deadline", stale, len(writes))
	}
}

// TestWireAgentDelayFlushesFirst: a fault-injected delay flushes the frames the
// pass buffered before it sleeps, so the pass splits into one write per
// delay, in the injector's seeded order, and no frame is reordered.
func TestWireAgentDelayFlushesFirst(t *testing.T) {
	const n = 16
	fault := FaultConfig{Seed: 3, DelayRate: 0.4, Delay: time.Millisecond}
	p := &passPlane{done: &Done{Testbed: "tb", Final: []StreamCursor{{Node: "n", Seq: n}}}}
	for seq := uint64(1); seq <= n; seq++ {
		p.frames = append(p.frames, nodeBatch(t, seq, 100))
	}
	// The expected writes: a new one starts at each delayed frame that has
	// frames buffered ahead of it; the last carries the Done.
	inj := newFaultInjector(fault)
	var want [][]uint64
	var cur []uint64
	for seq := uint64(1); seq <= n; seq++ {
		if _, delay := inj.apply(p.frames[seq-1]); delay > 0 && len(cur) > 0 {
			want, cur = append(want, cur), nil
		}
		cur = append(cur, seq)
	}
	want = append(want, cur)
	if len(want) < 3 {
		t.Fatalf("seed %d delays too few frames to test: %v", fault.Seed, want)
	}

	_, ac := runPass(t, p, fault, n)
	writes, _ := ac.snapshot()
	var got [][]uint64
	for _, w := range writes[1:] {
		var seqs []uint64
		for _, fr := range writeFrames(t, w) {
			if fr.Kind == KindBatch {
				seqs = append(seqs, fr.Batch.Seq)
			}
		}
		got = append(got, seqs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pass writes carried %v, want %v", got, want)
	}
}

// TestWireAgentReleasesHeldFrame pins PROTOCOL.md §8: a frame the fault
// injector holds back for a reorder goes out at the end of its send pass,
// not with the next pass or the Done.
func TestWireAgentReleasesHeldFrame(t *testing.T) {
	p := &passPlane{}
	for seq := uint64(1); seq <= 3; seq++ {
		p.frames = append(p.frames, nodeBatch(t, seq, 100))
	}
	// Reorder 1 holds frame 1, swaps it behind frame 2, then holds frame 3.
	seqs, ac := runPass(t, p, FaultConfig{Seed: 1, Reorder: 1}, 3)
	if want := []uint64{2, 1, 3}; !reflect.DeepEqual(seqs, want) {
		t.Fatalf("frames arrived as %v, want %v", seqs, want)
	}
	if writes, _ := ac.snapshot(); len(writes) != 2 {
		t.Fatalf("agent made %d writes, want the Hello and one pass", len(writes))
	}
}

// TestWireReadPatterns: ReadFrame decodes the same frames through a
// session's bufio.Reader over one-byte and half reads, with a frame larger
// than the buffer among them, as straight from a bytes.Reader, and ends
// with io.EOF.
func TestWireReadPatterns(t *testing.T) {
	var stream []byte
	add := func(f []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, f...)
	}
	add(jsonFrame(KindHello, &Hello{Session: SessionVersion, Campaign: wireCampaign, Testbed: "tb", Nodes: []string{"n"}}))
	add(jsonFrame(KindAck, &Ack{Cursors: []StreamCursor{{Node: "n", Seq: 2}, {Node: "m", Seq: 1}}}))
	add(nodeBatch(t, 3, 500), nil)
	add(jsonFrame(KindAck, &Ack{Cursors: []StreamCursor{{Node: "n", Seq: 3, Watermark: 3 * sim.Hour}}}))
	add(nodeBatch(t, 4, 3*dataBufSize), nil)
	add(jsonFrame(KindDone, &Done{Testbed: "tb", Final: []StreamCursor{{Node: "n", Seq: 4}}}))
	add(jsonFrame(KindReject, &Reject{Code: RejectDraining, Reason: "draining"}))
	add(jsonFrame(KindFin, &Fin{}))

	read := func(r io.Reader) []*Frame {
		var out []*Frame
		for {
			fr, err := ReadFrame(r)
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatalf("frame %d: %v", len(out), err)
			}
			out = append(out, fr)
		}
	}
	want := read(bytes.NewReader(stream))
	if len(want) != 8 {
		t.Fatalf("decoded %d frames, want 8", len(want))
	}
	for name, r := range map[string]io.Reader{
		"bufio over one-byte reads": bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(stream)), dataBufSize),
		"bufio over half reads":     bufio.NewReaderSize(iotest.HalfReader(bytes.NewReader(stream)), dataBufSize),
		"small bufio":               bufio.NewReaderSize(iotest.HalfReader(bytes.NewReader(stream)), controlBufSize),
		"one-byte reads":            iotest.OneByteReader(bytes.NewReader(stream)),
	} {
		if got := read(r); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded frames differ from a bytes.Reader's", name)
		}
	}
}

// rawFrame renders one control frame around a hand-written JSON payload,
// the bytes a peer of another session protocol version sends.
func rawFrame(kind FrameKind, payload string) []byte {
	f := []byte{0, 0, 0, byte(1 + len(payload)), byte(kind)}
	return append(f, payload...)
}

// TestWireSinkRefusesV2Hello: a session protocol v2 agent's Hello, which
// names no session version, is answered with a fatal protocol Reject that
// says so in one line. v2 agents treat the
// code, which they do not know, as fatal (PROTOCOL.md §4.2).
func TestWireSinkRefusesV2Hello(t *testing.T) {
	s, agent, _ := pipeSink(t)
	hello := `{"campaign":{"seed":5,"duration":86400000000000,"scenario":1},"testbed":"alpha","nodes":["a1","a2","napA"]}`
	if _, err := agent.Write(rawFrame(KindHello, hello)); err != nil {
		t.Fatal(err)
	}
	fr := readN(t, agent, 1)[0]
	if fr.Kind != KindReject || fr.Reject.Code != RejectProtocol || fr.Reject.Retryable() ||
		!strings.Contains(fr.Reject.Reason, "v2") || strings.Contains(fr.Reject.Reason, "\n") {
		t.Fatalf("v2 Hello answered %v %+v, want one fatal protocol Reject naming v2", fr.Kind, fr.Reject)
	}
	if m := s.Metrics(); m.HellosRejected != 1 {
		t.Fatalf("%d hellos rejected, want 1", m.HellosRejected)
	}
}

// TestWireAgentStopsOnV2Resume: a session protocol v2 sink answers the
// Hello with its Resume (kind 3). The agent stops with one line naming the
// sink's version: the session reports no handshake, Err says why, and the
// link is closed, so the dial loop does not try again.
func TestWireAgentStopsOnV2Resume(t *testing.T) {
	l, sinkEnd, _, ended := pipeAgent(t, &passPlane{}, FaultConfig{})
	if _, err := sinkEnd.Write(rawFrame(v2Resume, `{"cursors":[{"node":"n","seq":0,"watermark":0}]}`)); err != nil {
		t.Fatal(err)
	}
	if sessionEnd(t, ended) {
		t.Fatal("session reported a handshake with a v2 sink")
	}
	err := l.Err()
	if err == nil || !strings.Contains(err.Error(), "sink speaks session protocol v2") ||
		strings.Contains(err.Error(), "\n") {
		t.Fatalf("Err() = %v, want one line saying the sink speaks v2", err)
	}
	select {
	case <-l.closed:
	default:
		t.Fatal("the link is still open: the dial loop would reconnect")
	}
}

// TestWireAgentEndsOnForeignAck: an Ack naming a stream the Hello did not
// declare is a protocol violation, and the agent ends the session (and
// reconnects) without stopping.
func TestWireAgentEndsOnForeignAck(t *testing.T) {
	l, sinkEnd, _, ended := pipeAgent(t, &passPlane{}, FaultConfig{})
	for _, ack := range []*Ack{{Cursors: []StreamCursor{{Node: "n"}}}, {Cursors: []StreamCursor{{Node: "x", Seq: 1}}}} {
		if err := writeControl(sinkEnd, KindAck, ack); err != nil {
			t.Fatal(err)
		}
	}
	if !sessionEnd(t, ended) {
		t.Fatal("session reported no handshake")
	}
	if err := l.Err(); err != nil {
		t.Fatalf("a foreign Ack stopped the agent: %v", err)
	}
}

// TestWireAgentAbortsOnRegressedAck: an Ack behind a cursor the sink
// already told is lost durable state — on any Ack of the session, not only
// the first — and stops the agent with the checkpoint-lost line.
func TestWireAgentAbortsOnRegressedAck(t *testing.T) {
	l, sinkEnd, _, ended := pipeAgent(t, &passPlane{}, FaultConfig{})
	for _, seq := range []uint64{5, 3} {
		if err := writeControl(sinkEnd, KindAck, &Ack{Cursors: []StreamCursor{{Node: "n", Seq: seq}}}); err != nil {
			t.Fatal(err)
		}
	}
	sessionEnd(t, ended)
	if err := l.Err(); err == nil || !strings.Contains(err.Error(), "at seq 3, below acknowledged 5 (checkpoint lost?)") {
		t.Fatalf("Err() = %v, want the checkpoint-lost abort", err)
	}
}
