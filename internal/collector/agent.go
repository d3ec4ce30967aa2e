package collector

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Agent is the distributed collection plane's uplink: it runs inside a
// testbed-shard process (cmd/btagent), accepts that shard's periodic log
// drains through Ingest — the same call shape a local analysis.Streamer
// takes, so a testbed streams to either without knowing which — stamps each
// drain with the stream's next sequence number, and ships it to the sink as
// a binary batch frame over TCP.
//
// Delivery is at-least-once on top of a lossy path: every batch stays
// buffered until the sink acknowledges it (cumulatively, per stream), a
// connection loss triggers reconnect-and-resume from the sink's Resume
// cursors, and an acknowledgement stall triggers go-back-N retransmission
// of everything unacknowledged (link.session runs the loop; the Agent is
// its record plane). The sink deduplicates by sequence number, so
// duplicates arising from retransmission are harmless by construction.
//
// With SpillDir configured the agent is additionally crash-tolerant: every
// encoded batch frame is appended to a write-ahead spill log (wal.go)
// before it is offered to the uplink, acknowledgements truncate the log,
// and a restarted agent replays the unacknowledged tail while skipping the
// drains its deterministic re-run regenerates — so kill -9 of the shard
// process resumes to a bit-identical campaign, the same way a sink kill
// already does.
type Agent struct {
	link // the shared session engine; its mu guards the fields below
	cfg  AgentConfig

	streams map[string]*agentStream
	order   []string
	wal     *wal        // nil without SpillDir
	walQ    []walQueued // ingested but not yet encoded/spilled batches
	done    *Done       // set by Finish; sent once per connection and after each stall
	wg      sync.WaitGroup
}

// AgentConfig configures an Agent.
type AgentConfig struct {
	// Addr is the sink's TCP address.
	Addr string
	// Campaign identifies the campaign; the sink refuses the session when
	// it differs from its own (node lists alone cannot tell campaigns
	// apart, so seed/duration/scenario mismatches would otherwise merge
	// silently).
	Campaign CampaignID
	// Keyspace addresses one campaign of a multi-tenant sink (empty: the
	// sink's default keyspace, matching pre-keyspace deployments). It also
	// namespaces the spill log's filename, so agents of different
	// campaigns can share one SpillDir without colliding.
	Keyspace string
	// Testbed names the shard; Nodes its streams (must match the sink's
	// spec for this testbed).
	Testbed string
	Nodes   []string
	// Fault optionally injects deterministic loss/duplication/reordering/
	// delay into outgoing data frames (see FaultConfig).
	Fault FaultConfig
	// SpillDir, when set, enables the write-ahead spill log: encoded batch
	// frames are appended to <SpillDir>/<Testbed>.wal before being offered
	// to the uplink, and a restarted agent given the same directory replays
	// the unacknowledged tail (PROTOCOL.md §10). Empty keeps the batches in
	// memory only — a crashed agent then restarts its shard from scratch.
	SpillDir string
	// SpillBudget bounds the spill log's unacknowledged bytes (graceful
	// degradation during a sink outage is not an unbounded disk promise):
	// when a new frame would push the live spill past the budget the agent
	// fails loudly instead of spilling forever. 0 means unbounded.
	SpillBudget int64
	// RetryMin is the backoff floor between reconnection attempts while the
	// sink is unreachable (default 100 ms). Consecutive failures double the
	// delay up to RetryMax, with deterministic jitter from RetrySeed; the
	// agent retries until Close or Finish timeout — a crashed sink is
	// expected to come back with its checkpoint.
	RetryMin time.Duration
	// RetryMax caps the reconnection backoff (default 5 s, never below
	// RetryMin).
	RetryMax time.Duration
	// RetrySeed seeds the backoff jitter, so a fleet of agents restarting
	// together does not hammer the sink in lockstep yet every run of a
	// given agent is reproducible (default 1; wire the shard seed here).
	RetrySeed uint64
	// StallTimeout triggers go-back-N retransmission, and a resend of the
	// Done, when sent batches or the Done went unanswered — no
	// acknowledgement progress and no Fin — for this long; eight stalls in
	// a row reconnect (default 500 ms).
	StallTimeout time.Duration
}

// bufEntry is one unacknowledged batch: the decoded form plus, when the
// spill log is enabled, the exact encoded frame (encoded once at Ingest so
// the bytes spilled, sent and retransmitted are identical).
type bufEntry struct {
	b   *Batch
	raw []byte // nil without SpillDir; sessions then encode at send time
}

// walQueued names one buffered batch awaiting its encode + spill append.
// While a session is live, Ingest only queues (keeping the drain callback
// off the syscall path) and the session flushes the queue — encode, WAL
// append, one file write — before offering anything to the uplink. With no
// session, Ingest flushes inline: during a sink outage, when the spill log
// is the only safety net, every accepted drain is durable before Ingest
// returns.
type walQueued struct {
	node string
	seq  uint64
}

// agentStream is one node's stream: its send state and its buffer.
type agentStream struct {
	sendState
	last     uint64     // last assigned sequence number
	ingested uint64     // drains seen this process (replay-skip counter)
	replayed uint64     // drains covered by the WAL replay; re-runs skip them
	buf      []bufEntry // unacknowledged batches, sequences acked+1..last
}

// unsent returns the stream's first batch not yet sent on this connection.
// Caller holds mu and has checked sentUpTo < last.
func (st *agentStream) unsent() bufEntry { return st.buf[int(st.sentUpTo-st.acked)] }

// NewAgent builds the uplink and starts its connection loop. With SpillDir
// set it first replays the shard's spill log: previously assigned sequence
// numbers, acknowledged cursors and unacknowledged frames are restored, and
// the first replayed-many drains of the deterministic re-run are skipped on
// Ingest rather than re-shipped.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Addr == "" || cfg.Testbed == "" || len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("collector: agent needs an address, a testbed and nodes")
	}
	if cfg.SpillBudget < 0 {
		return nil, fmt.Errorf("-spill-budget %d is negative (0 is unbounded)", cfg.SpillBudget)
	}
	if err := cfg.Fault.Validate(); err != nil {
		return nil, err
	}
	if cfg.RetrySeed == 0 {
		cfg.RetrySeed = 1
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 500 * time.Millisecond
	}
	a := &Agent{
		cfg:     cfg,
		streams: make(map[string]*agentStream, len(cfg.Nodes)),
	}
	a.init(cfg.Addr, retryPolicy{min: cfg.RetryMin, max: cfg.RetryMax,
		seed: int64(cfg.RetrySeed)}, cfg.StallTimeout, cfg.Fault)
	var replay map[string]*walStream
	if cfg.SpillDir != "" {
		// The spill log is keyed by keyspace-qualified shard name: agents
		// of different campaigns sharing a spill directory must not collide
		// on (or refuse) each other's logs.
		walName := cfg.Testbed
		if cfg.Keyspace != "" {
			walName = cfg.Keyspace + "@" + cfg.Testbed
		}
		w, streams, err := openWAL(cfg.SpillDir, walName, cfg.Campaign, cfg.SpillBudget)
		if err != nil {
			return nil, err
		}
		a.wal = w
		replay = streams
	}
	for _, node := range cfg.Nodes {
		if _, dup := a.streams[node]; dup {
			if a.wal != nil {
				a.wal.close()
			}
			return nil, fmt.Errorf("collector: agent declares node %q twice", node)
		}
		st := &agentStream{sendState: sendState{node: node}}
		if ws := replay[node]; ws != nil {
			st.last, st.acked = ws.last, ws.acked
			st.sentUpTo, st.replayed = ws.acked, ws.last
			for _, f := range ws.frames {
				st.buf = append(st.buf, bufEntry{b: f.batch, raw: f.raw})
			}
		}
		a.streams[node] = st
		a.order = append(a.order, node)
		a.sends = append(a.sends, &st.sendState)
	}
	a.hello = &Hello{Campaign: cfg.Campaign, Keyspace: cfg.Keyspace, Testbed: cfg.Testbed, Nodes: a.order}
	for node := range replay {
		if _, ok := a.streams[node]; !ok {
			if a.wal != nil {
				a.wal.close()
			}
			return nil, fmt.Errorf("collector: spill log holds stream %q this agent does not declare "+
				"(node list changed between runs?)", node)
		}
	}
	a.wg.Add(1)
	go a.run()
	return a, nil
}

// Ingest accepts one drain of a node's logs — the testbed's streaming
// collection callback. The batch is stamped with the stream's next sequence
// number, spilled to the WAL when one is configured (inline while the sink
// is unreachable; through the session's pre-send flush while a session is
// live, keeping this callback off the syscall path), buffered until
// acknowledged, and shipped asynchronously: Ingest never blocks on the
// network, so a sink outage stalls shipping, not the campaign (buffered
// batches grow with the outage, bounded only by SpillBudget).
//
// On a replayed run the first drains are the deterministic re-run of work
// the previous process already assigned sequence numbers to: they are
// counted and skipped, so replayed frames keep their original sequence
// numbers and the sink's duplicate filter sees a consistent stream. A drain
// whose sequence the sink has already durably acknowledged is likewise
// dropped without buffering.
func (a *Agent) Ingest(testbed, node string, reports []core.UserReport,
	entries []core.SystemEntry, watermark sim.Time) error {
	if testbed != a.cfg.Testbed {
		return fmt.Errorf("collector: agent for %q got a %q drain", a.cfg.Testbed, testbed)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return a.err
	}
	if a.done != nil {
		return fmt.Errorf("collector: ingest after Finish")
	}
	st, ok := a.streams[node]
	if !ok {
		return fmt.Errorf("collector: agent for %q got a drain for undeclared node %q",
			a.cfg.Testbed, node)
	}
	st.ingested++
	if st.ingested <= st.replayed {
		// The WAL already accounts for this drain (its frame either
		// survived into buf or was acknowledged before the crash).
		return nil
	}
	st.last++
	if st.last <= st.acked {
		// The sink holds this batch durably (its Resume cursor was ahead of
		// our replayed state); assigning the sequence number keeps the
		// stream consistent, shipping it again would only feed the
		// duplicate filter.
		return nil
	}
	e := bufEntry{b: &Batch{
		Node: node, Testbed: testbed,
		Reports: reports, Entries: entries,
		Watermark: watermark, Seq: st.last,
	}}
	st.buf = append(st.buf, e)
	if a.wal != nil {
		a.walQ = append(a.walQ, walQueued{node: node, seq: st.last})
		if !a.connected {
			if err := a.flushWALLocked(); err != nil {
				a.fatalLocked(err)
				return err
			}
		}
	}
	a.signal()
	return nil
}

// flushWALLocked encodes every queued batch, appends the frames to the
// spill log and writes them out in one append. After it returns nil, every
// buffered batch is durable — the precondition for offering any of them to
// the uplink. Caller holds mu.
func (a *Agent) flushWALLocked() error {
	if a.wal == nil || len(a.walQ) == 0 {
		return nil
	}
	for _, q := range a.walQ {
		st := a.streams[q.node]
		if q.seq <= st.acked {
			continue // pruned before it was ever flushed (cannot happen for sent frames)
		}
		e := &st.buf[int(q.seq-st.acked-1)]
		raw, err := encodeBatchFrame(e.b)
		if err != nil {
			return err
		}
		if err := a.wal.appendFrame(raw, false); err != nil {
			return err
		}
		e.raw = raw
	}
	a.walQ = a.walQ[:0]
	return a.wal.flush()
}

// Finish declares the shard complete: no more Ingest calls will come. It
// ships the Done frame — the final per-stream cursors plus the shard's
// workload counter snapshots and campaign duration — and blocks until the
// sink confirms with Fin that every batch up to those cursors is durable,
// or the timeout expires. A zero timeout waits indefinitely.
func (a *Agent) Finish(counters map[string]*workload.CountersSnapshot, duration sim.Time,
	timeout time.Duration) error {
	a.mu.Lock()
	if a.err != nil {
		err := a.err
		a.mu.Unlock()
		return err
	}
	if a.done == nil {
		done := &Done{Testbed: a.cfg.Testbed, Duration: duration, Counters: counters}
		for _, node := range a.order {
			done.Final = append(done.Final, StreamCursor{Node: node, Seq: a.streams[node].last})
		}
		a.done = done
	}
	a.mu.Unlock()
	a.signal()

	var timeoutCh <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	select {
	case <-a.fin:
		return nil
	case <-a.closed:
		if err := a.Err(); err != nil {
			return err
		}
		return fmt.Errorf("collector: agent closed before the sink confirmed completion")
	case <-timeoutCh:
		a.mu.Lock()
		unacked := 0
		for _, st := range a.streams {
			unacked += int(st.last - st.acked)
		}
		rejects, lastReject := a.rejects, a.lastReject
		a.mu.Unlock()
		msg := fmt.Sprintf("collector: sink did not confirm completion within %v "+
			"(%d batches still unacknowledged)", timeout, unacked)
		if rejects > 0 {
			msg += fmt.Sprintf("; sink rejected the session %d times, last: %s",
				rejects, lastReject.Error())
		}
		return fmt.Errorf("%s", msg)
	}
}

// Close stops the agent without waiting for acknowledgements (tests and
// error paths; the normal shutdown is Finish). The spill log file is
// closed but kept on disk — whatever it holds is exactly what a restart
// needs.
func (a *Agent) Close() {
	a.closeOnce.Do(func() { close(a.closed) })
	a.wg.Wait()
	a.mu.Lock()
	if a.wal != nil {
		if err := a.flushWALLocked(); err != nil {
			a.fatalLocked(err)
		}
		a.wal.close()
	}
	a.mu.Unlock()
}

// Abort stops the agent as the in-process double for kill -9: unflushed
// network state AND unflushed spill appends are abandoned — only what the
// spill log already holds survives into the next incarnation, which must
// regenerate the rest from its deterministic re-run.
//
// Test seam: TestChaosAgentSinkKillStorm and TestAgentSpillKillResume.
func (a *Agent) Abort() {
	a.closeOnce.Do(func() { close(a.closed) })
	a.wg.Wait()
	a.mu.Lock()
	if a.wal != nil {
		a.walQ = nil
		a.wal.abort()
	}
	a.mu.Unlock()
}

// run is the agent's connection loop (link.redial) around its sessions.
func (a *Agent) run() {
	defer a.wg.Done()
	a.redial(a)
}

// spawn runs f on a goroutine whose base is an Agent method, so profiles
// book the session's ack reader to the agent.
func (a *Agent) spawn(f func()) { go func() { f() }() }

// pruneLocked moves a stream's acknowledged cursor forward, drops the
// buffered batches it covers and truncates the spill log's view of them.
// Caller holds mu.
func (a *Agent) pruneLocked(ss *sendState, acked uint64) {
	st := a.streams[ss.node]
	drop := int(acked - st.acked)
	if drop > len(st.buf) {
		drop = len(st.buf)
	}
	var freed int64
	if a.wal != nil {
		for _, e := range st.buf[:drop] {
			freed += walRecordSize(len(e.raw))
		}
	}
	st.buf = st.buf[:copy(st.buf, st.buf[drop:])]
	st.acked = acked
	if a.wal != nil {
		if err := a.wal.noteAck(st.node, acked, freed); err != nil {
			a.fatalLocked(err)
			return
		}
		a.maybeCompactLocked()
	}
}

// maybeCompactLocked rewrites the spill log when acknowledged frames
// dominate it, keeping exactly the still-unacknowledged buffers. Caller
// holds mu.
func (a *Agent) maybeCompactLocked() {
	if a.wal == nil || !a.wal.shouldCompact() {
		return
	}
	if err := a.flushWALLocked(); err != nil {
		a.fatalLocked(err)
		return
	}
	var raws [][]byte
	for _, node := range a.order {
		for _, e := range a.streams[node].buf {
			raws = append(raws, e.raw)
		}
	}
	if err := a.wal.compact(raws); err != nil {
		a.fatalLocked(err)
	}
}

// due gathers the batches to send now (everything assigned but not yet
// sent on this connection) and, once Finish was requested, the Done frame
// to follow them. The streams' unsent batches are
// merged by watermark: each stream keeps its sequence order, and ties go to
// roster order, the order a single-process campaign drains them in. The
// sink folds up to the minimum watermark over all streams, so a backlog
// shipped one node after another would pend whole at the sink until the
// last node's first batch arrived.
func (a *Agent) due() ([]bufEntry, *Done) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Durability before delivery: everything gathered below must already be
	// in the spill log when it goes on the wire.
	if err := a.flushWALLocked(); err != nil {
		a.fatalLocked(err)
		return nil, nil
	}
	var out []bufEntry
	for {
		var next *agentStream
		for _, node := range a.order {
			st := a.streams[node]
			if st.sentUpTo < st.last && (next == nil ||
				st.unsent().b.Watermark < next.unsent().b.Watermark) {
				next = st
			}
		}
		if next == nil {
			break
		}
		out = append(out, next.unsent())
		a.countSendLocked(&next.sendState)
	}
	// Once Finish has been requested, every known batch is on the wire by
	// the end of this pass, so Done may ride right behind the data.
	return out, a.done
}
