package collector

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Sink is the distributed collection plane's repository process
// (cmd/btsink): a multi-tenant service hosting one streaming aggregator per
// campaign keyspace. It accepts agent sessions over TCP, routes each session
// to its keyspace by the Hello handshake, applies sequenced batches exactly
// once (duplicates from retransmission are filtered by sequence number), and
// acknowledges durable progress.
//
// Tenancy and robustness properties:
//
//   - Every keyspace has its own streamer, checkpoint file, completion state
//     and transport counters: one campaign finishing, failing or flooding
//     never touches its neighbors' state.
//   - Admission control: per-keyspace byte/batch ingest quotas. A keyspace
//     that exhausts its quota is quarantined — its sessions get a typed
//     over-quota Reject, new hellos are refused, and the quarantine is
//     persisted in the keyspace's checkpoint so a sink restart does not
//     silently re-admit the offender. Requota lifts it.
//   - Backpressure: when the sink's total buffered record count exceeds the
//     configured memory budget, acknowledgements are delayed. Acks gate the
//     agents' send windows, so the fleet slows down instead of ballooning
//     the sink's memory.
//   - Graceful drain: Drain seals every tenant's checkpoint, notifies live
//     sessions with a retryable draining Reject, and refuses new hellos —
//     agents back off and resume against the restarted (or replacement)
//     sink with nothing lost.
//
// With a checkpoint path configured a tenant periodically serializes its
// full live aggregation state — analysis.StreamerCheckpoint plus the
// counters and completion bookkeeping — to disk with an atomic rename, and
// acknowledges only checkpoint-covered batches. A killed sink restarted on
// the same checkpoint files resumes exactly where the last checkpoints left
// off; agents reconnect, learn the durable cursors from the Resume
// handshake, retransmit the tail, and every campaign completes with tables
// bit-identical to an uninterrupted run (pinned by TestDistributedResume and
// the multi-tenant chaos tests).
type Sink struct {
	cfg SinkConfig
	ln  net.Listener

	mu        sync.Mutex
	tenants   map[string]*tenant
	districts map[string]*district
	conns     map[net.Conn]bool
	draining  bool
	closed    bool

	delayedAcks    int // acks delayed by the memory-budget backpressure
	hellosRejected int // hello handshakes answered with a Reject

	wg sync.WaitGroup
}

// tenant is one campaign keyspace's private state.
type tenant struct {
	cfg KeyspaceConfig
	str *analysis.Streamer

	ackable   map[skey]StreamCursor // what sessions may acknowledge
	finals    map[string][]StreamCursor
	counters  map[string]map[string]*workload.CountersSnapshot
	durations map[string]sim.Time
	finished  map[string]bool
	sessions  map[string]*sinkSession // latest session per testbed
	sinceCP   int
	agg       *analysis.Aggregates // set at completion
	trace     []analysis.DependEvent

	applied     int // batches applied (first delivery)
	duplicates  int // batch frames filtered as retransmitted duplicates
	rejected    int // batch frames refused as protocol errors
	ckptFails   int // checkpoint write failures (disk trouble, not protocol)
	lastCkptErr error

	ingestBytes   int64 // data-frame wire bytes received (retransmissions included)
	ingestBatches int   // data frames received
	quarantined   bool  // over quota: shedding load until Requota

	ckptBuf []byte // checkpoint encode buffer, reused until completion

	done chan struct{}
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
	// (0 = unlimited). Exceeding either quarantines the keyspace.
	MaxBytes   int64
	MaxBatches int
}

// SinkConfig configures a Sink. The Campaign/Spec/CheckpointPath trio is the
// single-campaign shorthand: when Spec declares any testbeds, it becomes the
// default ("") keyspace, which is how pre-multi-tenant deployments keep
// working unchanged. Additional (or all) campaigns go in Keyspaces.
type SinkConfig struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// Campaign identifies the default keyspace's campaign (single-campaign
	// shorthand; see KeyspaceConfig.Campaign).
	Campaign CampaignID
	// Spec declares the default keyspace's streams (single-campaign
	// shorthand; see KeyspaceConfig.Spec).
	Spec analysis.StreamSpec
	// CheckpointPath is the default keyspace's checkpoint file (see
	// KeyspaceConfig.CheckpointPath).
	CheckpointPath string
	// Keyspaces declares the hosted campaigns beyond (or instead of) the
	// single-campaign shorthand fields.
	Keyspaces []KeyspaceConfig
	// Districts declares the hosted scatternet district keyspaces: piconet
	// ranges of metro campaigns whose agents ship fold partials (protocol
	// §12) instead of record batches. Districts and flat keyspaces are
	// independent namespaces; a sink may host both at once.
	Districts []DistrictConfig
	// AllowEmpty lets the sink start with no keyspaces at all — the
	// always-on service mode, where campaigns arrive later via Register.
	// Without it an empty configuration is a loud error.
	AllowEmpty bool
	// CheckpointEvery is the number of received batch frames between a
	// keyspace's checkpoints (default 64; 1 checkpoints after every frame).
	CheckpointEvery int
	// MemoryBudget bounds the total buffered (not yet folded) record count
	// across all keyspaces; above it acknowledgements are delayed by
	// BackpressureDelay to slow the fleet down (0 = no backpressure).
	MemoryBudget int
	// BackpressureDelay is the per-ack delay applied while over the memory
	// budget (default 2 ms).
	BackpressureDelay time.Duration
	// HelloTimeout bounds the wait for a new connection's Hello frame
	// (default 10 s); a connection that says nothing is dropped.
	HelloTimeout time.Duration
	// WriteTimeout bounds each control frame write to an agent (default
	// 5 s); a stuck agent connection is dropped, the agent resumes.
	WriteTimeout time.Duration
	// SpecResolver maps a POST /campaigns registration (campaign identity
	// plus optional testbed-name subset) to the campaign's stream spec.
	// The collector package cannot derive specs itself — that knowledge
	// lives with the campaign definition — so the embedding binary wires
	// this in (cmd/btsink uses the testbed package's campaign spec).
	// Nil disables HTTP registration (the endpoint answers 501).
	SpecResolver func(campaign CampaignID, testbeds []string) (analysis.StreamSpec, error)
}

// skey identifies one stream.
type skey struct{ testbed, node string }

// sinkSession serializes writes to one agent connection (acknowledgements
// and Fin can be written from another session's completion path).
type sinkSession struct {
	conn    net.Conn
	timeout time.Duration
	wmu     sync.Mutex
}

// send writes one control frame to the session's connection.
func (s *sinkSession) send(kind byte, payload any) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	return writeControl(s.conn, kind, payload)
}

// sinkCheckpoint is one keyspace's on-disk state: the campaign identity, the
// full live aggregation state, and the session-protocol and admission
// bookkeeping that must survive a crash. (Quota accounting is persisted so
// a restart cannot silently re-admit a quarantined campaign.)
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
	if cfg.HelloTimeout <= 0 {
		cfg.HelloTimeout = 10 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 5 * time.Second
	}
	if cfg.BackpressureDelay <= 0 {
		cfg.BackpressureDelay = 2 * time.Millisecond
	}
	s := &Sink{
		cfg:       cfg,
		tenants:   make(map[string]*tenant),
		districts: make(map[string]*district),
		conns:     make(map[net.Conn]bool),
	}
	keyspaces := cfg.Keyspaces
	if len(cfg.Spec.Testbeds) > 0 {
		keyspaces = append([]KeyspaceConfig{{
			Campaign: cfg.Campaign, Spec: cfg.Spec, CheckpointPath: cfg.CheckpointPath,
		}}, keyspaces...)
	}
	if len(keyspaces) == 0 && len(cfg.Districts) == 0 && !cfg.AllowEmpty {
		return nil, fmt.Errorf("collector: sink declares no keyspaces (set AllowEmpty for the always-on mode)")
	}
	for _, dc := range cfg.Districts {
		d, err := newDistrict(dc)
		if err != nil {
			return nil, err
		}
		if _, dup := s.districts[dc.Key]; dup {
			return nil, fmt.Errorf("collector: duplicate district keyspace %q", dc.Key)
		}
		s.districts[dc.Key] = d
	}
	for _, ks := range keyspaces {
		t, err := s.newTenant(ks)
		if err != nil {
			return nil, err
		}
		if _, dup := s.tenants[ks.Key]; dup {
			return nil, fmt.Errorf("collector: duplicate keyspace %q", ks.Key)
		}
		s.tenants[ks.Key] = t
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("collector: listen %s: %w", cfg.Addr, err)
	}
	s.ln = ln
	for _, t := range s.tenants {
		s.checkCompletion(t) // a checkpoint taken after completion resumes complete
	}
	for _, d := range s.districts {
		s.checkScatterCompletion(d)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// newTenant builds one keyspace, resuming from its checkpoint file when it
// exists.
func (s *Sink) newTenant(ks KeyspaceConfig) (*tenant, error) {
	t := &tenant{
		cfg:       ks,
		ackable:   make(map[skey]StreamCursor),
		finals:    make(map[string][]StreamCursor),
		counters:  make(map[string]map[string]*workload.CountersSnapshot),
		durations: make(map[string]sim.Time),
		finished:  make(map[string]bool),
		sessions:  make(map[string]*sinkSession),
		done:      make(chan struct{}),
	}
	if ks.CheckpointPath != "" {
		if blob, err := ReadFileDurable(ks.CheckpointPath); err == nil {
			cp, err := decodeSinkCheckpoint(blob)
			if err != nil {
				return nil, fmt.Errorf("collector: corrupt sink checkpoint %s: %w", ks.CheckpointPath, err)
			}
			if cp.Campaign != ks.Campaign || cp.Keyspace != ks.Key {
				return nil, fmt.Errorf("collector: checkpoint %s is from a different campaign "+
					"(keyspace %q, seed %d, %v, scenario %d; this keyspace is %q, seed %d, %v, scenario %d) — "+
					"delete it to start over", ks.CheckpointPath,
					cp.Keyspace, cp.Campaign.Seed, cp.Campaign.Duration, cp.Campaign.Scenario,
					ks.Key, ks.Campaign.Seed, ks.Campaign.Duration, ks.Campaign.Scenario)
			}
			str, err := analysis.RestoreStreamer(ks.Spec, cp.Streamer)
			if err != nil {
				return nil, fmt.Errorf("collector: restore sink checkpoint: %w", err)
			}
			t.str = str
			for i := range cp.Streamer.Shards {
				sh := &cp.Streamer.Shards[i]
				t.ackable[skey{sh.Testbed, sh.Node}] = StreamCursor{
					Node: sh.Node, Seq: sh.NextSeq - 1, Watermark: sh.Watermark}
			}
			for tb, final := range cp.Finals {
				t.finals[tb] = final
			}
			for tb, m := range cp.Counters {
				t.counters[tb] = m
			}
			for tb, d := range cp.Durations {
				t.durations[tb] = d
			}
			t.ingestBytes = cp.IngestBytes
			t.ingestBatches = cp.IngestBatches
			t.quarantined = cp.Quarantined
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("collector: read sink checkpoint: %w", err)
		}
	}
	if t.str == nil {
		str, err := analysis.NewStreamer(ks.Spec)
		if err != nil {
			return nil, err
		}
		t.str = str
		for _, tb := range ks.Spec.Testbeds {
			for _, node := range append(append([]string{}, tb.PANUs...), tb.NAP) {
				t.ackable[skey{tb.Name, node}] = StreamCursor{Node: node}
			}
		}
	}
	return t, nil
}

// Register adds a keyspace to a running sink — the always-on service path,
// where campaigns come and go while the sink stays up. Registering an
// existing key, or registering on a draining sink, is an error.
func (s *Sink) Register(ks KeyspaceConfig) error {
	t, err := s.newTenant(ks)
	if err != nil {
		return err
	}
	s.mu.Lock()
	switch {
	case s.closed:
		err = fmt.Errorf("collector: register %q on a closed sink", ks.Key)
	case s.draining:
		err = fmt.Errorf("collector: register %q on a draining sink", ks.Key)
	default:
		if _, dup := s.tenants[ks.Key]; dup {
			err = fmt.Errorf("collector: keyspace %q already registered", ks.Key)
		} else {
			s.tenants[ks.Key] = t
		}
	}
	s.mu.Unlock()
	if err == nil {
		s.checkCompletion(t)
	}
	return err
}

// Requota replaces a keyspace's ingest quotas and lifts its quarantine (the
// operator's load-shedding escape hatch). The accumulated ingest counters
// stay — if they already exceed the new quota, the next frame re-trips it.
func (s *Sink) Requota(key string, maxBytes int64, maxBatches int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[key]
	if t == nil {
		return fmt.Errorf("collector: requota of unknown keyspace %q", key)
	}
	t.cfg.MaxBytes, t.cfg.MaxBatches = maxBytes, maxBatches
	t.quarantined = false
	return nil
}

// Addr reports the listening address.
func (s *Sink) Addr() string { return s.ln.Addr().String() }

// Stats reports transport counters summed over every keyspace: batches
// applied for the first time, duplicate frames filtered, and frames rejected
// as protocol errors.
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

// rejectHello refuses a handshake with a typed reason.
func (s *Sink) rejectHello(conn net.Conn, code, format string, args ...any) {
	s.mu.Lock()
	s.hellosRejected++
	s.mu.Unlock()
	writeControl(conn, frameReject, &Reject{Code: code, Reason: fmt.Sprintf(format, args...)})
}

// serve drives one agent session.
func (s *Sink) serve(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(s.cfg.HelloTimeout))
	fr, err := ReadFrame(conn)
	if err != nil || fr.Kind != KindHello {
		return
	}
	conn.SetReadDeadline(time.Time{})
	hello := fr.Hello
	if hello.Scatter != nil {
		s.serveScatter(conn, hello)
		return
	}

	s.mu.Lock()
	draining := s.draining
	t := s.tenants[hello.Keyspace]
	var quarantined bool
	if t != nil {
		quarantined = t.quarantined
	}
	s.mu.Unlock()

	switch {
	case draining:
		s.rejectHello(conn, RejectDraining, "sink is draining; retry against its replacement")
		return
	case t == nil:
		s.rejectHello(conn, RejectUnknownCampaign,
			"no campaign registered under keyspace %q (yet)", hello.Keyspace)
		return
	case quarantined:
		s.rejectHello(conn, RejectOverQuota,
			"keyspace %q is quarantined over quota (%d bytes, %d batches ingested)",
			hello.Keyspace, t.ingestBytes, t.ingestBatches)
		return
	case hello.Campaign != t.cfg.Campaign:
		s.rejectHello(conn, RejectCampaignMismatch,
			"campaign mismatch: agent runs seed %d, %v, scenario %d; keyspace %q runs seed %d, %v, scenario %d",
			hello.Campaign.Seed, hello.Campaign.Duration, hello.Campaign.Scenario,
			hello.Keyspace, t.cfg.Campaign.Seed, t.cfg.Campaign.Duration, t.cfg.Campaign.Scenario)
		return
	}
	spec := testbedSpec(&t.cfg.Spec, hello.Testbed)
	if spec == nil || !nodesMatch(hello.Nodes, append(append([]string{}, spec.PANUs...), spec.NAP)) {
		s.rejectHello(conn, RejectUnknownShard,
			"unknown shard %q or node set not in keyspace %q's spec", hello.Testbed, hello.Keyspace)
		return
	}
	sess := &sinkSession{conn: conn, timeout: s.cfg.WriteTimeout}
	res := Resume{}
	s.mu.Lock()
	t.sessions[hello.Testbed] = sess
	for _, node := range append(append([]string{}, spec.PANUs...), spec.NAP) {
		res.Cursors = append(res.Cursors, t.ackable[skey{hello.Testbed, node}])
	}
	s.mu.Unlock()
	if err := sess.send(frameResume, &res); err != nil {
		return
	}

	for {
		fr, err := ReadFrame(conn)
		if err != nil {
			return
		}
		switch fr.Kind {
		case KindBatch:
			if !s.handleBatch(t, sess, fr.Batch, fr.WireBytes) {
				return
			}
		case KindDone:
			s.handleDone(t, fr.Done)
		default:
			return // protocol violation
		}
	}
}

// handleBatch applies one data frame to the session's keyspace and
// acknowledges the stream's durable cursor. It reports whether the session
// should continue.
func (s *Sink) handleBatch(t *tenant, sess *sinkSession, b *Batch, wireBytes int) bool {
	key := skey{b.Testbed, b.Node}
	s.mu.Lock()
	// Admission control first: quota accounting covers every received data
	// frame, retransmissions included — the quota bounds what the keyspace
	// makes the shared sink do, not its unique payload.
	t.ingestBytes += int64(wireBytes)
	t.ingestBatches++
	if t.quarantined ||
		(t.cfg.MaxBytes > 0 && t.ingestBytes > t.cfg.MaxBytes) ||
		(t.cfg.MaxBatches > 0 && t.ingestBatches > t.cfg.MaxBatches) {
		if !t.quarantined {
			t.quarantined = true
			if t.cfg.CheckpointPath != "" {
				// Make the quarantine durable immediately so a restarted
				// sink keeps shedding this keyspace rather than re-admitting
				// it with reset accounting.
				if err := s.checkpointLocked(t); err != nil {
					t.ckptFails++
					t.lastCkptErr = err
				}
			}
		}
		bytes, batches := t.ingestBytes, t.ingestBatches
		s.mu.Unlock()
		sess.send(frameReject, &Reject{Code: RejectOverQuota, Reason: fmt.Sprintf(
			"keyspace %q over ingest quota (%d bytes, %d batches received)",
			t.cfg.Key, bytes, batches)})
		return false
	}
	if t.finished[b.Testbed] || t.agg != nil {
		// Late retransmission after completion: everything is durable
		// already, just re-acknowledge.
		cur := t.ackable[key]
		s.mu.Unlock()
		return sess.send(frameAck, &Ack{Node: b.Node, Seq: cur.Seq, Watermark: cur.Watermark}) == nil
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
	} else if t.sinceCP >= s.cfg.CheckpointEvery || donePending(t) {
		// Endgame: once a shard has declared Done, every further frame is a
		// retransmission filling the last gaps — checkpoint eagerly so the
		// final acknowledgements (and Fin) go out without waiting for the
		// cadence to come around.
		if err := s.checkpointLocked(t); err != nil {
			// Disk trouble, not a peer error: record it where Wait's
			// timeout diagnostics surface it, and drop the session so the
			// agent keeps the unacknowledged batches for retransmission.
			t.ckptFails++
			t.lastCkptErr = err
			s.mu.Unlock()
			return false
		}
	}
	cur := t.ackable[key]
	s.mu.Unlock()
	s.backpressure()
	ok := sess.send(frameAck, &Ack{Node: b.Node, Seq: cur.Seq, Watermark: cur.Watermark}) == nil
	s.checkCompletion(t)
	return ok
}

// backpressure delays the pending acknowledgement while the sink is over its
// memory budget. Acks gate the agents' send windows, and frames on one
// session are processed serially, so a delayed ack directly slows the fleet
// down to what the sink absorbs.
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
	time.Sleep(s.cfg.BackpressureDelay)
}

// PendingRecords reports the total buffered (not yet folded) record count
// across every keyspace — the quantity the memory budget bounds.
func (s *Sink) PendingRecords() int {
	s.mu.Lock()
	streamers := make([]*analysis.Streamer, 0, len(s.tenants))
	for _, t := range s.tenants {
		streamers = append(streamers, t.str)
	}
	s.mu.Unlock()
	n := 0
	for _, str := range streamers {
		n += str.Pending()
	}
	return n
}

// handleDone records a shard's completion claim: final cursors, counters,
// duration. Completion is re-checked (and, when checkpointing, made durable
// first).
func (s *Sink) handleDone(t *tenant, d *Done) {
	s.mu.Lock()
	if t.finished[d.Testbed] {
		// Re-sent Done after a reconnect: answer with Fin again.
		sess := t.sessions[d.Testbed]
		s.mu.Unlock()
		if sess != nil {
			sess.send(frameFin, &Fin{})
		}
		return
	}
	t.finals[d.Testbed] = d.Final
	t.counters[d.Testbed] = d.Counters
	t.durations[d.Testbed] = d.Duration
	if t.cfg.CheckpointPath != "" {
		if err := s.checkpointLocked(t); err != nil {
			t.ckptFails++
			t.lastCkptErr = err
			s.mu.Unlock()
			return
		}
	}
	s.mu.Unlock()
	s.checkCompletion(t)
}

// checkpointLocked serializes one keyspace's full state to its checkpoint
// file — binary payload (sinkcheckpoint.go) encoded into the tenant's
// reused buffer, guard trailer appended in place, previous-good rotation
// and atomic rename — then advances the acknowledgeable cursors to what the
// checkpoint covers. Caller holds mu.
func (s *Sink) checkpointLocked(t *tenant) error {
	cp, err := t.str.Checkpoint()
	if err != nil {
		return err
	}
	buf, err := appendSinkCheckpoint(t.ckptBuf[:0], &sinkCheckpoint{Campaign: t.cfg.Campaign, Keyspace: t.cfg.Key,
		Streamer: cp, Finals: t.finals, Counters: t.counters, Durations: t.durations,
		IngestBytes: t.ingestBytes, IngestBatches: t.ingestBatches, Quarantined: t.quarantined})
	if err != nil {
		return err
	}
	buf = sealDurable(buf)
	t.ckptBuf = buf[:0]
	if err := writeSealed(t.cfg.CheckpointPath, buf); err != nil {
		return err
	}
	t.sinceCP = 0
	for i := range cp.Shards {
		sh := &cp.Shards[i]
		t.ackable[skey{sh.Testbed, sh.Node}] = StreamCursor{
			Node: sh.Node, Seq: sh.NextSeq - 1, Watermark: sh.Watermark}
	}
	return nil
}

// donePending reports whether some shard of the keyspace has declared Done
// but is not yet released. Caller holds mu.
func donePending(t *tenant) bool {
	for tb := range t.finals {
		if !t.finished[tb] {
			return true
		}
	}
	return false
}

// checkCompletion marks the keyspace's testbeds whose final cursors are
// fully acknowledgeable, releases their agents with Fin, and finalizes the
// campaign once every declared testbed is complete. The Fin frames go out
// synchronously BEFORE the done channel closes: WaitKeyspace returning (and
// the Close that typically follows it) must never cut off the last agent's
// release — the multi-process smoke caught exactly that race.
func (s *Sink) checkCompletion(t *tenant) {
	s.mu.Lock()
	var fins []*sinkSession
	for tb, final := range t.finals {
		if t.finished[tb] {
			continue
		}
		covered := true
		for _, c := range final {
			if t.ackable[skey{tb, c.Node}].Seq < c.Seq {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		t.finished[tb] = true
		if sess := t.sessions[tb]; sess != nil {
			fins = append(fins, sess)
		}
	}
	complete := t.agg == nil && len(t.finished) == len(t.cfg.Spec.Testbeds) &&
		len(t.cfg.Spec.Testbeds) > 0
	if complete {
		t.agg = t.str.Finalize()
		t.trace = t.str.DependTrace()
		t.ckptBuf = nil // no checkpoint follows completion
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

// nodesMatch reports set equality of two node lists.
func nodesMatch(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, n := range a {
		set[n] = true
	}
	for _, n := range b {
		if !set[n] {
			return false
		}
	}
	return len(set) == len(b)
}

// Wait blocks until the default keyspace's campaign has completed (all data
// durable and Done received), then returns its finalized report. A zero
// timeout waits indefinitely. Single-campaign deployments' entry point;
// multi-tenant callers use WaitKeyspace.
func (s *Sink) Wait(timeout time.Duration) (*SinkReport, error) {
	return s.WaitKeyspace("", timeout)
}

// WaitKeyspace blocks until the named keyspace's campaign has completed,
// then returns its finalized report. A zero timeout waits indefinitely.
func (s *Sink) WaitKeyspace(key string, timeout time.Duration) (*SinkReport, error) {
	s.mu.Lock()
	t := s.tenants[key]
	s.mu.Unlock()
	if t == nil {
		return nil, fmt.Errorf("collector: wait on unknown keyspace %q", key)
	}
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	select {
	case <-t.done:
	case <-timeoutCh:
		s.mu.Lock()
		applied, dups, rejected := t.applied, t.duplicates, t.rejected
		ckptFails, ckptErr := t.ckptFails, t.lastCkptErr
		quarantined := t.quarantined
		s.mu.Unlock()
		msg := fmt.Sprintf("collector: campaign incomplete after %v (%d applied, %d duplicates, %d rejected)",
			timeout, applied, dups, rejected)
		if quarantined {
			msg += "; keyspace is quarantined over quota"
		}
		if ckptFails > 0 {
			msg += fmt.Sprintf("; %d checkpoint write failures, last: %v", ckptFails, ckptErr)
		}
		return nil, fmt.Errorf("%s", msg)
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
// Sessions whose shard already completed were already released with Fin.
// The sink keeps listening — explicitly rejecting is kinder to a backing-off
// fleet than a connection refused — until Close tears it down. Idempotent.
func (s *Sink) Drain() error {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	var firstErr error
	var sessions []*sinkSession
	for _, t := range s.tenants {
		if t.cfg.CheckpointPath != "" && t.agg == nil {
			if err := s.checkpointLocked(t); err != nil {
				t.ckptFails++
				t.lastCkptErr = err
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		for tb, sess := range t.sessions {
			if !t.finished[tb] {
				sessions = append(sessions, sess)
			}
		}
	}
	for _, d := range s.districts {
		if d.cfg.CheckpointPath != "" && d.partial == nil {
			if err := s.districtCheckpointLocked(d); err != nil {
				d.ckptFails++
				d.lastCkptErr = err
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		for key, sess := range d.sessions {
			if !d.finished[key] {
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

// Close shuts the sink down gracefully: a final checkpoint per running
// keyspace (when configured) followed by teardown.
func (s *Sink) Close() error {
	s.mu.Lock()
	if !s.closed {
		for _, t := range s.tenants {
			if t.cfg.CheckpointPath != "" && t.agg == nil {
				_ = s.checkpointLocked(t)
			}
		}
		for _, d := range s.districts {
			if d.cfg.CheckpointPath != "" && d.partial == nil {
				_ = s.districtCheckpointLocked(d)
			}
		}
	}
	s.mu.Unlock()
	return s.shutdown()
}

// Abort kills the sink without a final checkpoint — the test double for
// SIGKILL: only state already checkpointed survives into a restart.
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

// KeyspaceMetrics is one keyspace's slice of the sink metrics.
type KeyspaceMetrics struct {
	Key      string     `json:"key"`
	Campaign CampaignID `json:"campaign"`

	Testbeds         int  `json:"testbeds"`
	FinishedTestbeds int  `json:"finished_testbeds"`
	Complete         bool `json:"complete"`
	Quarantined      bool `json:"quarantined"`

	AppliedBatches   int   `json:"applied_batches"`
	DuplicateBatches int   `json:"duplicate_batches"`
	RejectedBatches  int   `json:"rejected_batches"`
	IngestBytes      int64 `json:"ingest_bytes"`
	IngestBatches    int   `json:"ingest_batches"`
	QuotaBytes       int64 `json:"quota_bytes,omitempty"`
	QuotaBatches     int   `json:"quota_batches,omitempty"`

	PendingRecords     int `json:"pending_records"`
	CheckpointFailures int `json:"checkpoint_failures"`
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
// keyspace and globally (keyspaces sorted by key for stable output).
func (s *Sink) Metrics() *SinkMetrics {
	s.mu.Lock()
	m := &SinkMetrics{
		Draining:       s.draining,
		Sessions:       len(s.conns),
		MemoryBudget:   s.cfg.MemoryBudget,
		DelayedAcks:    s.delayedAcks,
		HellosRejected: s.hellosRejected,
	}
	type pair struct {
		t  *tenant
		km KeyspaceMetrics
	}
	pairs := make([]pair, 0, len(s.tenants))
	for key, t := range s.tenants {
		pairs = append(pairs, pair{t: t, km: KeyspaceMetrics{
			Key:              key,
			Campaign:         t.cfg.Campaign,
			Testbeds:         len(t.cfg.Spec.Testbeds),
			FinishedTestbeds: len(t.finished),
			Complete:         t.agg != nil,
			Quarantined:      t.quarantined,
			AppliedBatches:   t.applied,
			DuplicateBatches: t.duplicates,
			RejectedBatches:  t.rejected,
			IngestBytes:      t.ingestBytes,
			IngestBatches:    t.ingestBatches,
			QuotaBytes:       t.cfg.MaxBytes,
			QuotaBatches:     t.cfg.MaxBatches,

			CheckpointFailures: t.ckptFails,
		}})
	}
	s.mu.Unlock()
	for i := range pairs {
		pairs[i].km.PendingRecords = pairs[i].t.str.Pending()
		m.PendingRecords += pairs[i].km.PendingRecords
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].km.Key < pairs[j].km.Key })
	for _, p := range pairs {
		m.Keyspaces = append(m.Keyspaces, p.km)
	}
	return m
}
