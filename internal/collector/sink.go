package collector

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Sink is the distributed collection plane's repository process
// (cmd/btsink): a multi-tenant service hosting many keyspaces. It accepts
// agent sessions over TCP, routes each session to its keyspace by the Hello
// handshake, applies sequenced work exactly once (duplicates from
// retransmission are filtered by sequence number), and acknowledges durable
// progress only when a stream's cursor moves.
//
// One session engine serves two payloads. A campaign keyspace folds
// watermarked record batches into a streaming aggregator; a scatternet
// district keyspace (scatter.go) folds per-piconet fold partials. The
// Hello, the shared rejects, the durable cursors with their Resume and
// Acks, the Done/Fin release, completion, checkpoint bookkeeping, Wait and
// the Drain/Close loops are the same code for both.
//
// Tenancy and robustness properties:
//
//   - Every keyspace has its own aggregation state, checkpoint file,
//     completion state and transport counters: one campaign finishing,
//     failing or flooding never touches its neighbors' state.
//   - Admission control: per-keyspace byte/batch ingest quotas on campaign
//     keyspaces. A keyspace that exhausts its quota is quarantined — its
//     sessions get a typed over-quota Reject, new hellos are refused, and
//     the quarantine is persisted in the keyspace's checkpoint so a sink
//     restart does not silently re-admit the offender. Restarting with
//     quotas the restored counters no longer exceed lifts it.
//   - Backpressure: when the sink's total buffered record count exceeds the
//     configured memory budget, each session's next read is delayed. TCP
//     flow control carries the delay back to the agents, so the fleet slows
//     down instead of ballooning the sink's memory.
//   - Graceful drain: Drain seals every keyspace's checkpoint, notifies live
//     sessions with a retryable draining Reject, and refuses new hellos —
//     agents back off and resume against the restarted (or replacement)
//     sink with nothing lost.
//
// With a checkpoint path configured a keyspace serializes its full live
// aggregation state plus the session bookkeeping to disk with an atomic
// rename, and acknowledges only checkpoint-covered work. A killed sink
// restarted on the same checkpoint files resumes exactly where the last
// checkpoints left off; agents reconnect, learn the durable cursors from the
// Resume handshake, retransmit the tail, and every campaign completes with
// tables bit-identical to an uninterrupted run (pinned by
// TestDistributedResume, the multi-tenant chaos tests and the metro suite).
type Sink struct {
	cfg SinkConfig
	ln  net.Listener

	mu       sync.Mutex
	tenants  map[nsKey]*tenant
	conns    map[net.Conn]bool
	draining bool
	closed   bool

	delayedAcks    int // data frames delayed by the memory-budget backpressure
	hellosRejected int // hello handshakes answered with a Reject

	wg sync.WaitGroup
}

// nsKey addresses a keyspace. Campaign keyspaces and districts are separate
// namespaces: the Hello's Scatter field picks the district one.
type nsKey struct {
	district bool
	key      string
}

// tenant is one hosted keyspace: the plane-independent session bookkeeping,
// then the payload plane's state — record streams, or (district non-nil) a
// scatternet district's fold.
type tenant struct {
	// cfg is the keyspace's identity (Key, Campaign, ScenarioName,
	// CheckpointPath); the record plane also reads its Spec and quotas.
	cfg      KeyspaceConfig
	district *district

	// Done/Fin bookkeeping per stream: a campaign testbed, or a district's
	// piconet range.
	finals    map[string][]StreamCursor
	counters  map[string]map[string]*workload.CountersSnapshot
	durations map[string]sim.Time
	finished  map[string]bool
	sessions  map[string]*sinkSession // latest session per stream
	complete  bool
	// ackable holds every declared stream's durable cursor — what Resume
	// and Acks may tell. It moves when a checkpoint lands, or at apply
	// when the keyspace has no checkpoint file. A district's one stream is
	// its range key, which is also its one node.
	ackable map[skey]StreamCursor

	applied     int // work items applied (first delivery)
	duplicates  int // data frames filtered as retransmitted duplicates
	rejected    int // data frames refused as protocol errors
	ckptFails   int // checkpoint write failures (disk trouble, not protocol)
	lastCkptErr error
	// ckptBytes sums the sizes of the campaign checkpoint files written.
	ckptBytes int64

	done chan struct{}

	// The record plane.
	str           *analysis.Streamer
	sinceCP       int
	agg           *analysis.Aggregates // set at completion
	trace         []analysis.DependEvent
	ingestBytes   int64 // data-frame wire bytes received (retransmissions included)
	ingestBatches int   // data frames received
	quarantined   bool  // over quota: shedding load until a restart raises the quota
	ckptBuf       []byte
}

// KeyspaceConfig declares one campaign keyspace hosted by a Sink.
type KeyspaceConfig struct {
	// Key names the keyspace; agents address it with the Hello Keyspace
	// field. The empty string is the default keyspace pre-keyspace agents
	// land in.
	Key string
	// Campaign identifies the keyspace's campaign: sessions from agents of
	// a different campaign are refused, and a checkpoint file recorded
	// under a different campaign is never silently substituted.
	Campaign CampaignID
	// Spec declares the campaign's streams as hosted by THIS sink — the
	// full campaign spec, or (on one shard of a horizontally sharded
	// deployment) the subset of its testbeds this shard owns, built with
	// analysis.SubSpec so the shard records the depend trace the merge
	// tier needs.
	Spec analysis.StreamSpec
	// ScenarioName labels live Table 4 renderings served over HTTP
	// (optional; defaults to "scenario <N>").
	ScenarioName string
	// CheckpointPath enables durable checkpoints at this file; empty runs
	// the keyspace in memory only (acknowledgements then cover applied
	// batches immediately, and a crash loses the campaign).
	CheckpointPath string
	// MaxBytes / MaxBatches are the keyspace's ingest quotas, counted over
	// received data-frame wire bytes / frames, retransmissions included
	// (0 = unlimited; negative is refused). Exceeding either quarantines
	// the keyspace.
	MaxBytes   int64
	MaxBatches int
}

// SinkConfig configures a Sink.
type SinkConfig struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// Keyspaces declares the hosted campaigns; the one keyed "" is the
	// default keyspace agents without a -keyspace land in.
	Keyspaces []KeyspaceConfig
	// Districts declares the hosted scatternet district keyspaces: piconet
	// ranges of metro campaigns whose agents ship fold partials (protocol
	// §12) instead of record batches. Districts and campaign keyspaces are
	// independent namespaces; a sink may host both at once.
	Districts []DistrictConfig
	// AllowEmpty lets the sink start with no keyspaces at all — the
	// always-on service mode, where campaigns arrive later via Register.
	// Without it an empty configuration is a loud error.
	AllowEmpty bool
	// CheckpointEvery is the number of received batch frames between a
	// campaign keyspace's checkpoints (default 64; 1 checkpoints after every
	// frame). Districts checkpoint after every applied partial.
	CheckpointEvery int
	// MemoryBudget bounds the total buffered (not yet folded) record count
	// across all keyspaces; above it each data frame's processing is
	// delayed by backpressureDelay to slow the fleet down (0 = no
	// backpressure).
	MemoryBudget int
	// SpecResolver maps a POST /campaigns registration (campaign identity
	// plus optional testbed-name subset) to the campaign's stream spec.
	// The collector package cannot derive specs itself — that knowledge
	// lives with the campaign definition — so the embedding binary wires
	// this in (cmd/btsink uses the testbed package's campaign spec).
	// Nil disables HTTP registration (the endpoint answers 501).
	SpecResolver func(campaign CampaignID, testbeds []string) (analysis.StreamSpec, error)
}

// The sink's session timing.
const (
	// backpressureDelay is the per-frame delay applied while over the
	// memory budget.
	backpressureDelay = 2 * time.Millisecond
	// sinkHelloTimeout bounds the wait for a new connection's Hello frame;
	// a connection that says nothing is dropped.
	sinkHelloTimeout = 10 * time.Second
	// sinkWriteTimeout bounds each write to an agent; a stuck agent
	// connection is dropped, the agent resumes.
	sinkWriteTimeout = 5 * time.Second
)

// skey identifies one node of a stream: a campaign testbed's node, or a
// district's range key twice.
type skey struct{ testbed, node string }

// sinkSession is the sink's end of one agent connection. Its writes go
// through one buffer under wmu: Acks queue there, and Resume, Reject and Fin
// flush the buffer at once, Acks first. Fin and the draining Reject can be
// written from another session's goroutine. The session also reads its
// connection through Read, which flushes the queued Acks before every
// underlying read, so an Ack waits at most until the frames already read
// are handled.
type sinkSession struct {
	conn net.Conn
	wmu  sync.Mutex
	w    *bufio.Writer // nil once the session ended; guarded by wmu
	// told is the last cursor the session told the agent per node: the
	// Resume's, then each queued Ack's. Only the session's own goroutine
	// reads or writes it.
	told map[string]StreamCursor
}

// newSinkSession wraps conn with the session's write buffer.
func newSinkSession(conn net.Conn) *sinkSession {
	return &sinkSession{conn: conn,
		w: bufio.NewWriterSize(deadlineWriter{conn, sinkWriteTimeout}, controlBufSize)}
}

// write buffers one control frame behind the queued ones and, with flush,
// puts the buffer on the wire. A failed write or flush ends the session.
func (s *sinkSession) write(kind byte, payload any, flush bool) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.w == nil {
		return net.ErrClosed
	}
	if err := writeControl(s.w, kind, payload); err != nil || !flush {
		return err
	}
	return s.w.Flush()
}

// send writes one control frame to the session's connection now, after
// any queued Acks.
func (s *sinkSession) send(kind byte, payload any) error {
	return s.write(kind, payload, true)
}

// Read reads the agent's bytes from the connection. It first flushes the
// queued Acks: the session is about to wait on the network, so nothing it
// has queued may wait with it. serve reads through it until the session
// ends.
func (s *sinkSession) Read(p []byte) (int, error) {
	s.wmu.Lock()
	err := s.w.Flush()
	s.wmu.Unlock()
	if err != nil {
		return 0, err
	}
	return s.conn.Read(p)
}

// end drops the session's write buffer once its connection is done; a
// later send fails as a write to the closed connection would.
func (s *sinkSession) end() {
	s.wmu.Lock()
	s.w = nil
	s.wmu.Unlock()
}

// ack queues an Ack of a stream's durable cursor when it differs from the
// last one the session told the agent. A repeat would carry nothing: the
// agent already holds that cursor, and an Ack that does not advance it is
// not stall progress. A checkpointing sink's cursors move only at
// checkpoints, so most record frames get no Ack, and a retransmitted work
// item none (PROTOCOL.md §6). The cursor counts as told once the Ack is
// queued.
func (s *sinkSession) ack(cur StreamCursor) error {
	if s.told[cur.Node] == cur {
		return nil
	}
	if err := s.write(frameAck, Ack(cur), false); err != nil {
		return err
	}
	s.told[cur.Node] = cur
	return nil
}

// sinkCheckpoint is one campaign keyspace's on-disk state: the campaign
// identity, the full live aggregation state, and the session-protocol and
// admission bookkeeping that must survive a crash. (Quota accounting is
// persisted so a restart cannot silently re-admit a quarantined campaign.)
type sinkCheckpoint struct {
	Campaign  CampaignID                                       `json:"campaign"`
	Keyspace  string                                           `json:"keyspace,omitempty"`
	Streamer  *analysis.StreamerCheckpoint                     `json:"streamer"`
	Finals    map[string][]StreamCursor                        `json:"finals,omitempty"`
	Counters  map[string]map[string]*workload.CountersSnapshot `json:"counters,omitempty"`
	Durations map[string]sim.Time                              `json:"durations,omitempty"`

	IngestBytes   int64 `json:"ingest_bytes,omitempty"`
	IngestBatches int   `json:"ingest_batches,omitempty"`
	Quarantined   bool  `json:"quarantined,omitempty"`
}

// SinkReport is one completed campaign as seen by the sink: the finalized
// aggregates plus the per-testbed counters and durations shipped in the
// agents' Done frames.
type SinkReport struct {
	Agg       *analysis.Aggregates
	Counters  map[string]map[string]*workload.Counters
	Durations map[string]sim.Time
}

// NewSink starts the sink with its configured keyspaces. Keyspaces whose
// checkpoint file exists resume from it instead of starting empty.
func NewSink(cfg SinkConfig) (*Sink, error) {
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 64
	}
	if len(cfg.Keyspaces) == 0 && len(cfg.Districts) == 0 && !cfg.AllowEmpty {
		return nil, fmt.Errorf("collector: sink declares no keyspaces (set AllowEmpty for the always-on mode)")
	}
	s := &Sink{
		cfg:     cfg,
		tenants: make(map[nsKey]*tenant),
		conns:   make(map[net.Conn]bool),
	}
	for _, dc := range cfg.Districts {
		t, err := newDistrict(dc)
		if err == nil {
			err = s.addLocked(t)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, ks := range cfg.Keyspaces {
		t, err := s.newTenant(ks)
		if err == nil {
			err = s.addLocked(t)
		}
		if err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("collector: listen %s: %w", cfg.Addr, err)
	}
	s.ln = ln
	for _, t := range s.tenants {
		s.checkCompletion(t) // a checkpoint taken after completion resumes complete
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// newKeyspace builds the plane-independent part of a keyspace.
func newKeyspace(cfg KeyspaceConfig) *tenant {
	return &tenant{
		cfg:       cfg,
		finals:    make(map[string][]StreamCursor),
		counters:  make(map[string]map[string]*workload.CountersSnapshot),
		durations: make(map[string]sim.Time),
		finished:  make(map[string]bool),
		sessions:  make(map[string]*sinkSession),
		ackable:   make(map[skey]StreamCursor),
		done:      make(chan struct{}),
	}
}

// id is the keyspace's namespace address.
func (t *tenant) id() nsKey { return nsKey{district: t.district != nil, key: t.cfg.Key} }

// kind names the keyspace's plane in metrics and messages.
func (t *tenant) kind() string { return t.id().kind() }

// kind names the namespace: "campaign" or "district".
func (id nsKey) kind() string {
	if id.district {
		return "district"
	}
	return "campaign"
}

// readCheckpoint reads the keyspace's checkpoint file: nil when the
// keyspace does not checkpoint or has not written one yet.
func (t *tenant) readCheckpoint() ([]byte, error) {
	path := t.cfg.CheckpointPath
	if path == "" {
		return nil, nil
	}
	blob, err := ReadFileDurable(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("collector: read %s checkpoint: %w", t.kind(), err)
	}
	return blob, nil
}

// corrupt wraps a failure to decode or install the keyspace's checkpoint.
func (t *tenant) corrupt(err error) error {
	return fmt.Errorf("collector: corrupt %s checkpoint %s: %w", t.kind(), t.cfg.CheckpointPath, err)
}

// mismatch refuses a checkpoint recorded under another identity — never
// silently substituted. got and want render the two identities.
func (t *tenant) mismatch(got, want string) error {
	return fmt.Errorf("collector: checkpoint %s is from a different %s (%s; this %s is %s) — "+
		"delete it to start over", t.cfg.CheckpointPath, t.kind(), got, t.kind(), want)
}

// campaignIdentity renders a campaign keyspace's identity for the
// checkpoint mismatch error.
func campaignIdentity(key string, c CampaignID) string {
	return fmt.Sprintf("keyspace %q, seed %d, %v, scenario %d", key, c.Seed, c.Duration, c.Scenario)
}

// newTenant builds one campaign keyspace, resuming from its checkpoint file
// when it exists.
func (s *Sink) newTenant(ks KeyspaceConfig) (*tenant, error) {
	if ks.MaxBytes < 0 || ks.MaxBatches < 0 {
		return nil, fmt.Errorf("collector: keyspace %q quotas %d bytes, %d batches: negative (0 = unlimited)",
			ks.Key, ks.MaxBytes, ks.MaxBatches)
	}
	t := newKeyspace(ks)
	blob, err := t.readCheckpoint()
	if err != nil {
		return nil, err
	}
	if blob != nil {
		cp, err := decodeSinkCheckpoint(blob)
		if err != nil {
			return nil, t.corrupt(err)
		}
		if cp.Campaign != ks.Campaign || cp.Keyspace != ks.Key {
			return nil, t.mismatch(campaignIdentity(cp.Keyspace, cp.Campaign), campaignIdentity(ks.Key, ks.Campaign))
		}
		if t.str, err = analysis.RestoreStreamer(ks.Spec, cp.Streamer); err != nil {
			return nil, t.corrupt(err)
		}
		t.advanceAckable(cp.Streamer)
		for tb, final := range cp.Finals {
			t.finals[tb] = final
		}
		for tb, m := range cp.Counters {
			t.counters[tb] = m
		}
		for tb, d := range cp.Durations {
			t.durations[tb] = d
		}
		// A quarantine outlives the restart only while the restored
		// counters still exceed the quotas the sink now runs with, so
		// restarting with a larger quota lifts it.
		t.ingestBytes, t.ingestBatches = cp.IngestBytes, cp.IngestBatches
		t.quarantined = cp.Quarantined && t.overQuota()
	}
	if t.str == nil {
		str, err := analysis.NewStreamer(ks.Spec)
		if err != nil {
			return nil, err
		}
		t.str = str
		for _, tb := range ks.Spec.Testbeds {
			for _, node := range tb.Nodes() {
				t.ackable[skey{tb.Name, node}] = StreamCursor{Node: node}
			}
		}
	}
	return t, nil
}

// addLocked hosts a built keyspace. Caller holds mu (or owns the sink
// exclusively, as NewSink does).
func (s *Sink) addLocked(t *tenant) error {
	switch {
	case s.closed:
		return fmt.Errorf("collector: register %q on a closed sink", t.cfg.Key)
	case s.draining:
		return fmt.Errorf("collector: register %q on a draining sink", t.cfg.Key)
	case s.tenants[t.id()] != nil:
		return fmt.Errorf("collector: %s keyspace %q already registered", t.kind(), t.cfg.Key)
	}
	s.tenants[t.id()] = t
	return nil
}

// Register adds a campaign keyspace to a running sink — the always-on
// service path, where campaigns come and go while the sink stays up.
// Registering an existing key, or registering on a draining sink, is an
// error.
func (s *Sink) Register(ks KeyspaceConfig) error {
	t, err := s.newTenant(ks)
	if err != nil {
		return err
	}
	s.mu.Lock()
	err = s.addLocked(t)
	s.mu.Unlock()
	if err == nil {
		s.checkCompletion(t)
	}
	return err
}

// overQuota reports whether the keyspace's ingest counters exceed its
// configured quotas.
func (t *tenant) overQuota() bool {
	return t.cfg.MaxBytes > 0 && t.ingestBytes > t.cfg.MaxBytes ||
		t.cfg.MaxBatches > 0 && t.ingestBatches > t.cfg.MaxBatches
}

// Addr reports the listening address.
func (s *Sink) Addr() string { return s.ln.Addr().String() }

// Stats reports transport counters summed over every keyspace: work items
// applied for the first time, duplicate frames filtered, and frames
// rejected as protocol errors.
func (s *Sink) Stats() (applied, duplicates, rejected int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tenants {
		applied += t.applied
		duplicates += t.duplicates
		rejected += t.rejected
	}
	return applied, duplicates, rejected
}

// acceptLoop serves agent connections until Close/Abort.
func (s *Sink) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// serve drives one agent session of either plane: the Hello, the shared
// typed rejects, the plane's own admission checks, the Resume, then data
// and Done frames until the connection ends. Every frame is read through
// one bufio.Reader over the session, so one read(2) fills many frames.
func (s *Sink) serve(conn net.Conn) {
	sess := newSinkSession(conn)
	defer sess.end()
	r := bufio.NewReaderSize(sess, dataBufSize)
	conn.SetReadDeadline(time.Now().Add(sinkHelloTimeout))
	fr, err := ReadFrame(r)
	if err != nil || fr.Kind != KindHello {
		return
	}
	conn.SetReadDeadline(time.Time{})
	hello := fr.Hello
	id := nsKey{district: hello.Scatter != nil, key: hello.Keyspace}
	var (
		stream string
		nodes  []string
		rej    *Reject
	)
	s.mu.Lock()
	t := s.tenants[id]
	switch {
	case s.draining:
		rej = &Reject{Code: RejectDraining, Reason: "sink is draining; retry against its replacement"}
	case t == nil:
		rej = &Reject{Code: RejectUnknownCampaign, Reason: fmt.Sprintf(
			"no %s registered under keyspace %q (yet)", id.kind(), hello.Keyspace)}
	case hello.Campaign != t.cfg.Campaign:
		rej = &Reject{Code: RejectCampaignMismatch, Reason: fmt.Sprintf(
			"campaign mismatch: agent runs seed %d, %v, scenario %d; %s %q runs seed %d, %v, scenario %d",
			hello.Campaign.Seed, hello.Campaign.Duration, hello.Campaign.Scenario, t.kind(),
			hello.Keyspace, t.cfg.Campaign.Seed, t.cfg.Campaign.Duration, t.cfg.Campaign.Scenario)}
	case t.district != nil:
		stream, nodes, rej = t.district.admit(hello)
	default:
		stream, nodes, rej = t.admitRecords(hello)
	}
	res := &Resume{}
	if rej != nil {
		s.hellosRejected++
	} else {
		sess.told = make(map[string]StreamCursor, len(nodes))
		for _, node := range nodes {
			c := t.ackable[skey{stream, node}]
			res.Cursors = append(res.Cursors, c)
			sess.told[node] = c // the Resume tells the agent these cursors
		}
		t.sessions[stream] = sess
	}
	s.mu.Unlock()
	if rej != nil {
		sess.send(frameReject, rej)
		return
	}
	if sess.send(frameResume, res) != nil {
		return
	}

	for {
		fr, err := ReadFrame(r)
		if err != nil {
			return
		}
		switch {
		case fr.Kind == KindDone:
			s.handleDone(t, stream, fr.Done)
		case fr.Kind == KindBatch && t.district == nil:
			if !s.handleBatch(t, sess, stream, fr.Batch, fr.WireBytes) {
				return
			}
		case fr.Kind == KindScatter && t.district != nil:
			if !s.handleScatter(t, sess, stream, fr.Scatter) {
				return
			}
		default:
			return // protocol violation
		}
	}
}

// admitRecords runs the record plane's Hello checks — quota quarantine and
// the shard's node set — and returns the testbed and its nodes. Caller
// holds mu.
func (t *tenant) admitRecords(hello *Hello) (string, []string, *Reject) {
	if t.quarantined {
		return "", nil, &Reject{Code: RejectOverQuota, Reason: fmt.Sprintf(
			"keyspace %q is quarantined over quota (%d bytes, %d batches ingested)",
			hello.Keyspace, t.ingestBytes, t.ingestBatches)}
	}
	spec := testbedSpec(&t.cfg.Spec, hello.Testbed)
	if spec == nil || !nodesMatch(hello.Nodes, spec.Nodes()) {
		return "", nil, &Reject{Code: RejectUnknownShard, Reason: fmt.Sprintf(
			"unknown shard %q or node set not in keyspace %q's spec", hello.Testbed, hello.Keyspace)}
	}
	return hello.Testbed, spec.Nodes(), nil
}

// handleBatch applies one data frame to the session's keyspace and
// acknowledges the stream's durable cursor when it moved. It reports
// whether the session should continue. A frame labelled with any stream
// but the one the session's Hello was admitted for is a protocol
// violation: it is counted as rejected, earns no Ack, and ends the session
// (PROTOCOL.md §4).
func (s *Sink) handleBatch(t *tenant, sess *sinkSession, stream string, b *Batch, wireBytes int) bool {
	key := skey{b.Testbed, b.Node}
	s.mu.Lock()
	if b.Testbed != stream {
		t.rejected++
		s.mu.Unlock()
		return false
	}
	// Admission control first: quota accounting covers every received data
	// frame, retransmissions included — the quota bounds what the keyspace
	// makes the shared sink do, not its unique payload.
	t.ingestBytes += int64(wireBytes)
	t.ingestBatches++
	if t.quarantined || t.overQuota() {
		if !t.quarantined {
			t.quarantined = true
			if t.cfg.CheckpointPath != "" {
				// Make the quarantine durable immediately so a restarted
				// sink keeps shedding this keyspace rather than re-admitting
				// it with reset accounting.
				s.checkpointLocked(t)
			}
		}
		bytes, batches := t.ingestBytes, t.ingestBatches
		s.mu.Unlock()
		sess.send(frameReject, &Reject{Code: RejectOverQuota, Reason: fmt.Sprintf(
			"keyspace %q over ingest quota (%d bytes, %d batches received)",
			t.cfg.Key, bytes, batches)})
		return false
	}
	if t.finished[b.Testbed] || t.complete {
		// Late retransmission after completion: everything is durable
		// already, just re-acknowledge if this session has not told it.
		return s.ackDurable(t, sess, key, false)
	}
	s.mu.Unlock()

	accepted, err := t.str.OfferSeq(b.Testbed, b.Node, b.Reports, b.Entries, b.Watermark, b.Seq)
	s.mu.Lock()
	if err != nil {
		t.rejected++
		s.mu.Unlock()
		return false
	}
	if accepted {
		t.applied++
	} else {
		t.duplicates++
	}
	t.sinceCP++
	if t.cfg.CheckpointPath == "" {
		// No durability layer: applied is acknowledgeable immediately.
		seq, wm, err := t.str.Cursor(b.Testbed, b.Node)
		if err == nil {
			t.ackable[key] = StreamCursor{Node: b.Node, Seq: seq, Watermark: wm}
		}
	}
	// Endgame: once a shard has declared Done, every further frame is a
	// retransmission filling the last gaps — checkpoint eagerly so the final
	// acknowledgements (and Fin) go out without waiting for the cadence to
	// come around.
	return s.ackDurable(t, sess, key, t.cfg.CheckpointPath != "" &&
		(t.sinceCP >= s.cfg.CheckpointEvery || t.donePending()))
}

// ackDurable finishes a data frame of either plane: a checkpoint when
// asked, then an Ack of the stream's durable cursor under the told-cursor
// rule, then the completion check. A failed checkpoint is disk trouble,
// not a peer error: the session drops without an Ack, so the agent keeps
// the unacknowledged work and its retransmission retries the checkpoint.
// Caller holds mu; ackDurable releases it. It reports whether the session
// should continue.
func (s *Sink) ackDurable(t *tenant, sess *sinkSession, key skey, checkpoint bool) bool {
	if checkpoint && s.checkpointLocked(t) != nil {
		s.mu.Unlock()
		return false
	}
	cur := t.ackable[key]
	s.mu.Unlock()
	s.backpressure()
	ok := sess.ack(cur) == nil
	s.checkCompletion(t)
	return ok
}

// backpressure delays the session's next read (and any acknowledgement the
// frame earned) while the sink is over its memory budget. Frames on one
// session are processed serially, so the delay reaches the agent through
// TCP flow control and slows the fleet down to what the sink absorbs.
func (s *Sink) backpressure() {
	if s.cfg.MemoryBudget <= 0 {
		return
	}
	if s.PendingRecords() <= s.cfg.MemoryBudget {
		return
	}
	s.mu.Lock()
	s.delayedAcks++
	s.mu.Unlock()
	time.Sleep(backpressureDelay)
}

// PendingRecords reports the total buffered (not yet folded) record count
// across every keyspace — the quantity the memory budget bounds. A
// completed keyspace's streamer is finalized and holds nothing, so it is
// skipped without taking its shard locks.
func (s *Sink) PendingRecords() int {
	s.mu.Lock()
	streamers := make([]*analysis.Streamer, 0, len(s.tenants))
	for _, t := range s.tenants {
		if t.str != nil && !t.complete {
			streamers = append(streamers, t.str)
		}
	}
	s.mu.Unlock()
	n := 0
	for _, str := range streamers {
		n += str.Pending()
	}
	return n
}

// handleDone records a stream's completion claim — final cursors, counters,
// duration — made durable first when checkpointing, then re-checks
// completion. A Done re-sent after a reconnect is answered with Fin again.
func (s *Sink) handleDone(t *tenant, stream string, d *Done) {
	s.mu.Lock()
	if t.finished[stream] {
		sess := t.sessions[stream]
		s.mu.Unlock()
		if sess != nil {
			sess.send(frameFin, &Fin{})
		}
		return
	}
	if t.district != nil && (len(d.Final) != 1 || d.Final[0].Node != stream || d.Final[0].Seq != t.district.items()) {
		// A district's Done names exactly its range's work-item count.
		s.mu.Unlock()
		return
	}
	t.finals[stream] = d.Final
	t.counters[stream] = d.Counters
	t.durations[stream] = d.Duration
	if t.cfg.CheckpointPath != "" && s.checkpointLocked(t) != nil {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.checkCompletion(t)
}

// checkpointLocked writes the keyspace's checkpoint file — the record
// plane's binary payload (sinkcheckpoint.go) or the district's JSON
// document — and records a failure where Wait's timeout diagnostics and the
// metrics surface it. Caller holds mu.
func (s *Sink) checkpointLocked(t *tenant) error {
	var err error
	if t.district != nil {
		err = t.district.checkpoint(t)
	} else {
		err = t.checkpointRecords()
	}
	if err != nil {
		t.ckptFails++
		t.lastCkptErr = err
	}
	return err
}

// checkpointRecords serializes a campaign keyspace's full state — binary
// payload encoded into the tenant's reused buffer straight from the
// streamer's live queues, guard trailer appended in place, previous-good
// rotation and atomic rename — then advances the acknowledgeable cursors to
// what the checkpoint covers. The payload is encoded inside the streamer's
// checkpoint view and written after it returns, so the streamer's locks
// (which ingest and AggSnapshot take) are never held across the disk
// write; the sink mutex the caller holds still is. Caller holds mu.
func (t *tenant) checkpointRecords() error {
	var covered *analysis.StreamerCheckpoint
	err := t.str.CheckpointView(func(cp *analysis.StreamerCheckpoint) (err error) {
		covered = cp
		t.ckptBuf, err = appendSinkCheckpoint(t.ckptBuf[:0], &sinkCheckpoint{Campaign: t.cfg.Campaign,
			Keyspace: t.cfg.Key, Streamer: cp, Finals: t.finals, Counters: t.counters, Durations: t.durations,
			IngestBytes: t.ingestBytes, IngestBatches: t.ingestBatches, Quarantined: t.quarantined})
		return err
	})
	if err != nil {
		return err
	}
	buf := sealDurable(t.ckptBuf)
	t.ckptBuf = buf[:0]
	if err := writeSealed(t.cfg.CheckpointPath, buf); err != nil {
		return err
	}
	t.ckptBytes += int64(len(buf))
	t.sinceCP = 0
	t.advanceAckable(covered)
	return nil
}

// advanceAckable moves the acknowledgeable cursors to what a streamer
// checkpoint covers. It reads only the shards' cursors, which a checkpoint
// view leaves to its caller.
func (t *tenant) advanceAckable(cp *analysis.StreamerCheckpoint) {
	for i := range cp.Shards {
		sh := &cp.Shards[i]
		t.ackable[skey{sh.Testbed, sh.Node}] = StreamCursor{
			Node: sh.Node, Seq: sh.NextSeq - 1, Watermark: sh.Watermark}
	}
}

// donePending reports whether some stream of the keyspace has declared Done
// but is not yet released. Caller holds mu.
func (t *tenant) donePending() bool {
	for stream := range t.finals {
		if !t.finished[stream] {
			return true
		}
	}
	return false
}

// ready reports whether every declared stream is released. A district's
// Done names every work item of its range, so its fold is whole by then.
// Caller holds mu.
func (t *tenant) ready() bool {
	for k := range t.ackable {
		if !t.finished[k.testbed] {
			return false
		}
	}
	return len(t.ackable) > 0
}

// checkCompletion releases the streams whose final cursors are fully
// acknowledgeable with Fin, and finalizes the keyspace once every stream is
// complete. The Fin frames go out synchronously BEFORE the done channel
// closes: WaitKeyspace/WaitDistrict returning (and the Close that typically
// follows it) must never cut off the last agent's release — the
// multi-process smokes caught exactly that race on both planes.
func (s *Sink) checkCompletion(t *tenant) {
	s.mu.Lock()
	var fins []*sinkSession
	for stream, final := range t.finals {
		if t.finished[stream] {
			continue
		}
		covered := true
		for _, c := range final {
			if t.ackable[skey{stream, c.Node}].Seq < c.Seq {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		t.finished[stream] = true
		if sess := t.sessions[stream]; sess != nil {
			fins = append(fins, sess)
		}
	}
	complete := !t.complete && t.ready()
	if complete {
		t.complete = true
		if d := t.district; d != nil {
			p := d.snapshot()
			d.partial = &p
		} else {
			t.agg = t.str.Finalize()
			t.trace = t.str.DependTrace()
			t.ckptBuf = nil // no checkpoint follows completion
		}
	}
	s.mu.Unlock()
	for _, sess := range fins {
		sess.send(frameFin, &Fin{})
	}
	if complete {
		close(t.done)
	}
}

// testbedSpec finds the declared spec entry for a testbed name.
func testbedSpec(spec *analysis.StreamSpec, name string) *analysis.TestbedSpec {
	for i := range spec.Testbeds {
		if spec.Testbeds[i].Name == name {
			return &spec.Testbeds[i]
		}
	}
	return nil
}

// nodesMatch reports whether two node lists hold the same nodes, counted
// with multiplicity (a spec's roster names each node once).
func nodesMatch(a, b []string) bool {
	return slices.Equal(slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b)))
}

// wait blocks until the addressed keyspace completes. A zero timeout waits
// indefinitely; on timeout the error carries the keyspace's progress and
// checkpoint-failure diagnostics.
func (s *Sink) wait(id nsKey, timeout time.Duration) (*tenant, error) {
	s.mu.Lock()
	t := s.tenants[id]
	s.mu.Unlock()
	if t == nil {
		return nil, fmt.Errorf("collector: wait on unknown %s %q", id.kind(), id.key)
	}
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	select {
	case <-t.done:
		return t, nil
	case <-timeoutCh:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	progress, why := "", ""
	switch d := t.district; {
	case d != nil:
		progress = fmt.Sprintf("%d/%d piconets folded, ", d.folded(), d.cfg.Hi-d.cfg.Lo)
		if owesOverlay(d.cfg.Net, d.cfg.Lo) && d.overlay == nil {
			why = "; overlay partial not received"
		}
	case t.quarantined:
		why = "; keyspace is quarantined over quota"
	}
	if t.ckptFails > 0 {
		why += fmt.Sprintf("; %d checkpoint write failures, last: %v", t.ckptFails, t.lastCkptErr)
	}
	return nil, fmt.Errorf("collector: %s %q incomplete after %v (%s%d applied, %d duplicates, %d rejected)%s",
		t.kind(), id.key, timeout, progress, t.applied, t.duplicates, t.rejected, why)
}

// WaitKeyspace blocks until the named campaign keyspace has completed (all
// data durable and every Done received), then returns its finalized report.
// A zero timeout waits indefinitely.
func (s *Sink) WaitKeyspace(key string, timeout time.Duration) (*SinkReport, error) {
	t, err := s.wait(nsKey{key: key}, timeout)
	if err != nil {
		return nil, err
	}
	rep := &SinkReport{
		Agg:       t.agg,
		Counters:  make(map[string]map[string]*workload.Counters),
		Durations: make(map[string]sim.Time),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for tb, m := range t.counters {
		rep.Counters[tb] = make(map[string]*workload.Counters, len(m))
		for node, snap := range m {
			c, err := workload.RestoreCounters(snap)
			if err != nil {
				return nil, fmt.Errorf("collector: counters for %s/%s: %w", tb, node, err)
			}
			rep.Counters[tb][node] = c
		}
	}
	for tb, d := range t.durations {
		rep.Durations[tb] = d
	}
	return rep, nil
}

// Drain starts a graceful shutdown: every keyspace's checkpoint is sealed
// (so acknowledgements cover exactly what survives), live sessions are told
// to go away with a retryable draining Reject, and new hellos are refused.
// Sessions whose stream already completed were already released with Fin.
// The sink keeps listening — explicitly rejecting is kinder to a backing-off
// fleet than a connection refused — until Close tears it down. Idempotent.
func (s *Sink) Drain() error {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	firstErr := s.sealLocked()
	var sessions []*sinkSession
	for _, t := range s.tenants {
		for stream, sess := range t.sessions {
			if !t.finished[stream] {
				sessions = append(sessions, sess)
			}
		}
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.send(frameReject, &Reject{Code: RejectDraining,
			Reason: "sink is draining; retry against its replacement"})
	}
	return firstErr
}

// sealLocked takes a final checkpoint of every running keyspace that has a
// checkpoint file, returning the first failure. Caller holds mu.
func (s *Sink) sealLocked() error {
	var firstErr error
	for _, t := range s.tenants {
		if t.cfg.CheckpointPath == "" || t.complete {
			continue
		}
		if err := s.checkpointLocked(t); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close shuts the sink down gracefully: a final checkpoint per running
// keyspace (when configured) followed by teardown.
func (s *Sink) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.sealLocked()
	}
	s.mu.Unlock()
	return s.shutdown()
}

// Abort kills the sink without a final checkpoint — the test double for
// SIGKILL: only state already checkpointed survives into a restart.
//
// Test seam: TestDistributedResume, TestMultiTenantShardedChaos and
// TestMetroDistributedSinkCrashRestore.
func (s *Sink) Abort() error { return s.shutdown() }

// shutdown closes the listener and every live connection, then waits.
func (s *Sink) shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// KeyspaceMetrics is one keyspace's slice of the sink metrics. Kind is
// "campaign" for record keyspaces and "district" for scatternet districts;
// the testbed, quota and pending fields describe campaigns, the piconet
// fields districts. CheckpointBytes sums the sizes of every checkpoint
// file a campaign keyspace has written.
type KeyspaceMetrics struct {
	Key      string     `json:"key"`
	Kind     string     `json:"kind"`
	Campaign CampaignID `json:"campaign"`

	Testbeds         int  `json:"testbeds"`
	FinishedTestbeds int  `json:"finished_testbeds"`
	Piconets         int  `json:"piconets,omitempty"`
	FoldedPiconets   int  `json:"folded_piconets,omitempty"`
	Complete         bool `json:"complete"`
	Quarantined      bool `json:"quarantined"`

	AppliedBatches   int   `json:"applied_batches"`
	DuplicateBatches int   `json:"duplicate_batches"`
	RejectedBatches  int   `json:"rejected_batches"`
	IngestBytes      int64 `json:"ingest_bytes"`
	IngestBatches    int   `json:"ingest_batches"`
	QuotaBytes       int64 `json:"quota_bytes,omitempty"`
	QuotaBatches     int   `json:"quota_batches,omitempty"`

	PendingRecords     int   `json:"pending_records"`
	CheckpointFailures int   `json:"checkpoint_failures"`
	CheckpointBytes    int64 `json:"checkpoint_bytes"`
}

// SinkMetrics is the sink's observable state — what /metricsz serves.
type SinkMetrics struct {
	Draining       bool `json:"draining"`
	Sessions       int  `json:"sessions"`
	PendingRecords int  `json:"pending_records"`
	MemoryBudget   int  `json:"memory_budget,omitempty"`
	DelayedAcks    int  `json:"delayed_acks"`
	HellosRejected int  `json:"hellos_rejected"`

	Keyspaces []KeyspaceMetrics `json:"keyspaces"`
}

// Metrics captures the sink's transport/ingest/durability counters, per
// keyspace and globally (keyspaces sorted by key, then kind, for stable
// output).
func (s *Sink) Metrics() *SinkMetrics {
	s.mu.Lock()
	m := &SinkMetrics{
		Draining:       s.draining,
		Sessions:       len(s.conns),
		MemoryBudget:   s.cfg.MemoryBudget,
		DelayedAcks:    s.delayedAcks,
		HellosRejected: s.hellosRejected,
	}
	// Pending counts take the streamers' shard locks: read them after
	// releasing mu, so a metrics poll never holds up ingest. A completed
	// keyspace pends nothing and is not read.
	strs := make([]*analysis.Streamer, 0, len(s.tenants))
	for _, t := range s.tenants {
		km := KeyspaceMetrics{
			Key:              t.cfg.Key,
			Kind:             t.kind(),
			Campaign:         t.cfg.Campaign,
			Testbeds:         len(t.cfg.Spec.Testbeds),
			FinishedTestbeds: len(t.finished),
			Complete:         t.complete,
			Quarantined:      t.quarantined,
			AppliedBatches:   t.applied,
			DuplicateBatches: t.duplicates,
			RejectedBatches:  t.rejected,
			IngestBytes:      t.ingestBytes,
			IngestBatches:    t.ingestBatches,
			QuotaBytes:       t.cfg.MaxBytes,
			QuotaBatches:     t.cfg.MaxBatches,

			CheckpointFailures: t.ckptFails,
			CheckpointBytes:    t.ckptBytes,
		}
		if d := t.district; d != nil {
			km.FinishedTestbeds = 0
			km.Piconets, km.FoldedPiconets = d.cfg.Hi-d.cfg.Lo, d.folded()
		}
		str := t.str
		if t.complete {
			str = nil
		}
		m.Keyspaces, strs = append(m.Keyspaces, km), append(strs, str)
	}
	s.mu.Unlock()
	for i, str := range strs {
		if str != nil {
			m.Keyspaces[i].PendingRecords = str.Pending()
			m.PendingRecords += m.Keyspaces[i].PendingRecords
		}
	}
	sort.Slice(m.Keyspaces, func(i, j int) bool {
		a, b := m.Keyspaces[i], m.Keyspaces[j]
		return a.Key < b.Key || (a.Key == b.Key && a.Kind < b.Kind)
	})
	return m
}
