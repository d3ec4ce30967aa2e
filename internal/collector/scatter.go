package collector

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// The scatternet district plane (protocol §12): a metro campaign sharded
// over real OS processes. Each scatternet agent owns a contiguous piconet
// range and streams one kind-8 frame per finished piconet — the fold
// partial AddPiconet needs — to its district sink, stop-and-wait under the
// same cumulative-cursor/Resume discipline as the flat record stream. The
// range that starts at piconet 0 additionally owns the bridge overlay and
// ships its pre-merged rollup partial as the final work item (the overlay's
// Welford merges are order-sensitive, so they happen at the owner, never at
// the sink). The sink folds partials in arrival order — ScatternetFold's
// aggregate sums are exact and commutative, and Finalize re-sorts the
// deployment trace by total key — checkpoints after every applied partial,
// and exports a trailer-sealed district partial when its range completes.
// MergeDistricts then rebuilds the metro rollup bit-identically to the
// single-process `btcampaign -scatternet -rollup -stream` run. This file
// holds only the payload: the session, Done/Fin, completion, checkpoint
// bookkeeping and Wait are the campaign keyspace's (sink.go), and the
// agent's connection loop and handshake are link.go's.

// ScatterNet is the scatternet campaign identity beyond CampaignID: the
// topology knobs that shape every piconet world and the probe plane. Agents
// and districts must agree on it exactly — a mismatch is a fatal
// configuration error, the metro analogue of a campaign mismatch.
type ScatterNet struct {
	Piconets    int      `json:"piconets"`
	Bridges     int      `json:"bridges"`
	Topology    string   `json:"topology,omitempty"`
	Redundancy  int      `json:"redundancy,omitempty"`
	Hold        sim.Time `json:"hold,omitempty"`
	ProbeSample float64  `json:"probe_sample,omitempty"`
}

// ScatterHello rides inside Hello on a district session: the shared
// scatternet identity plus the agent's claimed piconet range. Whether the
// range owes the bridge-overlay partial follows from the two (owesOverlay),
// so it does not travel.
type ScatterHello struct {
	Net ScatterNet `json:"net"`
	Lo  int        `json:"lo"`
	Hi  int        `json:"hi"`
}

// ScatterBatch is one kind-8 data frame: work item Seq of the session's
// range. Seq 1..(hi-lo) carry piconet partials for piconets lo..hi-1 in
// order; on a range that owes the overlay, seq hi-lo+1 carries the overlay
// partial. Exactly one of Piconet/Overlay is set.
type ScatterBatch struct {
	Seq     uint64                   `json:"seq"`
	Piconet *analysis.PiconetPartial `json:"piconet,omitempty"`
	Overlay *analysis.OverlayPartial `json:"overlay,omitempty"`
}

// scatterRangeKey names a piconet range — the stream/cursor key of a
// district session, the analogue of a flat stream's node name.
func scatterRangeKey(lo, hi int) string { return fmt.Sprintf("%d:%d", lo, hi) }

// owesOverlay reports whether the piconet range starting at lo owes the
// bridge-overlay partial as its last work item: the range containing
// piconet 0, when the campaign has bridges at all. Agent and district each
// derive it from the range; it never travels.
func owesOverlay(net ScatterNet, lo int) bool { return lo == 0 && net.Bridges > 0 }

// DistrictConfig declares one scatternet district keyspace hosted by a
// Sink: a contiguous piconet slice of one metro campaign.
type DistrictConfig struct {
	// Key names the district keyspace; agents address it with the Hello
	// Keyspace field. Districts and flat keyspaces are separate namespaces
	// (the Hello's Scatter field discriminates).
	Key string
	// Campaign identifies the campaign (seed/duration/scenario).
	Campaign CampaignID
	// Net is the scatternet identity every agent must match exactly.
	Net ScatterNet
	// ScenarioName labels the fold's Dependability column (must be the
	// campaign's Scenario.String(); defaults to "scenario <N>").
	ScenarioName string
	// Lo, Hi bound the piconet range [Lo, Hi) this district hosts; its one
	// agent session must claim exactly this range.
	Lo, Hi int
	// CheckpointPath enables a durable checkpoint after every applied
	// partial; empty runs the district in memory only.
	CheckpointPath string
}

// district is a district keyspace's fold plane; the session bookkeeping
// lives in the tenant that hosts it. Its one stream is the range key. The
// work items apply in order — piconets Lo..Hi-1, then the overlay when the
// range owes it — so the fold's rows and the overlay are the range's
// progress, and cursor only counts them.
type district struct {
	cfg     DistrictConfig
	fold    *analysis.ScatternetFold
	overlay *analysis.OverlayPartial
	cursor  uint64           // work items applied (and checkpointed, when checkpointing)
	partial *DistrictPartial // set at completion
}

// districtCheckpoint is one district's on-disk state: the partial it would
// export at this instant, plus the range's final cursor once its agent
// declared Done. The fold snapshot is exact (see
// analysis.ScatternetFoldSnapshot), so restart + resume is bit-identical
// to never having crashed. The work-item cursor is not stored: restore
// derives it from the fold's rows and the overlay.
type districtCheckpoint struct {
	DistrictPartial
	Finals map[string]uint64 `json:"finals,omitempty"`
}

// districtIdentity renders a district's identity for the checkpoint
// mismatch error.
func districtIdentity(key string, c CampaignID, net ScatterNet, lo, hi int) string {
	return fmt.Sprintf("keyspace %q, seed %d, %v, scenario %d, piconets [%d:%d) of %+v",
		key, c.Seed, c.Duration, c.Scenario, lo, hi, net)
}

// newDistrict builds one district keyspace, resuming from its checkpoint
// file when it exists.
func newDistrict(cfg DistrictConfig) (*tenant, error) {
	if cfg.Net.Piconets <= 0 {
		return nil, fmt.Errorf("collector: district %q declares no piconets", cfg.Key)
	}
	if cfg.Lo < 0 || cfg.Hi <= cfg.Lo || cfg.Hi > cfg.Net.Piconets {
		return nil, fmt.Errorf("collector: district %q range [%d:%d) outside the campaign's [0:%d)",
			cfg.Key, cfg.Lo, cfg.Hi, cfg.Net.Piconets)
	}
	if cfg.ScenarioName == "" {
		cfg.ScenarioName = fmt.Sprintf("scenario %d", cfg.Campaign.Scenario)
	}
	d := &district{cfg: cfg}
	t := newKeyspace(KeyspaceConfig{Key: cfg.Key, Campaign: cfg.Campaign,
		ScenarioName: cfg.ScenarioName, CheckpointPath: cfg.CheckpointPath})
	t.district = d
	blob, err := t.readCheckpoint()
	if err != nil {
		return nil, err
	}
	if blob != nil {
		var cp districtCheckpoint
		if err := json.Unmarshal(blob, &cp); err != nil {
			return nil, t.corrupt(err)
		}
		if cp.Campaign != cfg.Campaign || cp.Keyspace != cfg.Key ||
			cp.Net != cfg.Net || cp.Lo != cfg.Lo || cp.Hi != cfg.Hi {
			return nil, t.mismatch(districtIdentity(cp.Keyspace, cp.Campaign, cp.Net, cp.Lo, cp.Hi),
				districtIdentity(cfg.Key, cfg.Campaign, cfg.Net, cfg.Lo, cfg.Hi))
		}
		if err := d.restore(&cp); err != nil {
			return nil, t.corrupt(err)
		}
		for k, f := range cp.Finals {
			t.finals[k] = []StreamCursor{{Node: k, Seq: f}}
		}
	}
	if d.fold == nil {
		d.fold = analysis.NewScatternetFold(cfg.ScenarioName)
	}
	return t, nil
}

// restore installs a checkpointed partial whose identity already matched.
// Its fold must be a prefix of the range's work items — rows for piconets
// Lo, Lo+1, … in order, then the overlay only when the range owes one and
// every piconet has folded — and its final cursor may name only the range.
// The cursor follows: one work item per row, plus one for the overlay.
func (d *district) restore(cp *districtCheckpoint) error {
	fold, err := analysis.RestoreScatternetFold(cp.Fold)
	if err != nil {
		return err
	}
	rows, n := cp.Fold.Rows, d.cfg.Hi-d.cfg.Lo
	if len(rows) > n {
		return fmt.Errorf("fold holds %d piconets, range [%d:%d) has %d", len(rows), d.cfg.Lo, d.cfg.Hi, n)
	}
	for i, r := range rows {
		if r.Piconet != d.cfg.Lo+i {
			return fmt.Errorf("fold row %d is piconet %d, want %d", i, r.Piconet, d.cfg.Lo+i)
		}
	}
	if cp.Overlay != nil && (!owesOverlay(d.cfg.Net, d.cfg.Lo) || len(rows) < n) {
		return fmt.Errorf("overlay partial on range [%d:%d) with %d/%d piconets folded, which does not owe it yet",
			d.cfg.Lo, d.cfg.Hi, len(rows), n)
	}
	for k := range cp.Finals {
		if k != d.key() {
			return fmt.Errorf("final cursor of %q, not of range %s", k, d.key())
		}
	}
	d.fold, d.overlay, d.cursor = fold, cp.Overlay, uint64(len(rows))
	if cp.Overlay != nil {
		d.cursor++
	}
	return nil
}

// key is the district's one stream: its range key.
func (d *district) key() string { return scatterRangeKey(d.cfg.Lo, d.cfg.Hi) }

// items is the range's work-item count: one per piconet, plus the overlay
// when the range owes it.
func (d *district) items() uint64 {
	n := uint64(d.cfg.Hi - d.cfg.Lo)
	if owesOverlay(d.cfg.Net, d.cfg.Lo) {
		n++
	}
	return n
}

// folded reports how many of the range's piconets have folded: the
// overlay, when owed, is the work item after the last piconet.
func (d *district) folded() int { return min(int(d.cursor), d.cfg.Hi-d.cfg.Lo) }

// snapshot builds the partial the district would export at this instant —
// the checkpoint's body and, at completion, the export. Caller holds mu.
func (d *district) snapshot() DistrictPartial {
	return DistrictPartial{Keyspace: d.cfg.Key, Campaign: d.cfg.Campaign, Net: d.cfg.Net,
		Lo: d.cfg.Lo, Hi: d.cfg.Hi, Fold: d.fold.Snapshot(), Overlay: d.overlay}
}

// checkpoint serializes the district's full state to its checkpoint file
// (guard trailer, previous-good rotation, atomic rename). Acknowledgements
// cover exactly what this writes: the cursor IS the ackable position,
// advanced only after the checkpoint lands. Caller holds mu.
func (d *district) checkpoint(t *tenant) error {
	finals := make(map[string]uint64, len(t.finals))
	for k, f := range t.finals {
		finals[k] = f[0].Seq
	}
	blob, err := json.Marshal(&districtCheckpoint{DistrictPartial: d.snapshot(), Finals: finals})
	if err != nil {
		return err
	}
	return WriteFileDurable(t.cfg.CheckpointPath, blob)
}

// admit runs the district's Hello checks after the shared ones: the
// scatternet identity must match and the claimed range must be exactly the
// district's (PROTOCOL §12). It returns the range key and its Resume
// cursor. Caller holds mu.
func (d *district) admit(hello *Hello) (string, *Resume, *Reject) {
	sc := hello.Scatter
	switch {
	case sc.Net != d.cfg.Net:
		return "", nil, &Reject{Code: RejectCampaignMismatch, Reason: fmt.Sprintf(
			"scatternet mismatch: agent runs %+v; district %q runs %+v", sc.Net, hello.Keyspace, d.cfg.Net)}
	case sc.Lo != d.cfg.Lo || sc.Hi != d.cfg.Hi:
		return "", nil, &Reject{Code: RejectUnknownShard, Reason: fmt.Sprintf(
			"piconet range [%d:%d) is not district %q's [%d:%d)",
			sc.Lo, sc.Hi, hello.Keyspace, d.cfg.Lo, d.cfg.Hi)}
	}
	key := d.key()
	return key, &Resume{Cursors: []StreamCursor{{Node: key, Seq: d.cursor}}}, nil
}

// handleScatter applies one kind-8 frame under stop-and-wait discipline:
// only the next expected work item is applied (then checkpointed, then
// acknowledged); retransmissions re-acknowledge the cursor; frames from the
// future (reorder injection) are ignored and recovered by the agent's stall
// retransmission. It reports whether the session should continue.
func (s *Sink) handleScatter(t *tenant, sess *sinkSession, key string, sb *ScatterBatch) bool {
	d := t.district
	s.mu.Lock()
	if sb.Seq <= d.cursor {
		t.duplicates++
		ack := Ack{Node: key, Seq: d.cursor}
		s.mu.Unlock()
		return sess.send(frameAck, &ack) == nil
	}
	if sb.Seq != d.cursor+1 {
		s.mu.Unlock()
		return true
	}
	var applyErr error
	switch piconets := uint64(d.cfg.Hi - d.cfg.Lo); {
	case sb.Seq <= piconets:
		if p := d.cfg.Lo + int(sb.Seq) - 1; sb.Piconet == nil || sb.Piconet.Piconet != p {
			applyErr = fmt.Errorf("work item %d of range %s must be piconet %d's partial", sb.Seq, key, p)
		} else {
			applyErr = d.fold.AddPartial(sb.Piconet)
		}
	case sb.Seq == d.items():
		if sb.Overlay == nil {
			applyErr = fmt.Errorf("work item %d of range %s must be the overlay partial", sb.Seq, key)
		} else {
			d.overlay = sb.Overlay
		}
	default:
		applyErr = fmt.Errorf("work item %d beyond range %s's %d items", sb.Seq, key, d.items())
	}
	if applyErr != nil {
		t.rejected++
		s.mu.Unlock()
		return false
	}
	t.applied++
	// The checkpoint holds the fold with this partial in it, and a restore
	// derives the cursor from that fold, so the durable cursor can never
	// fall behind the durable fold (a restore re-requesting folded work) or
	// behind an ack (an agent aborting on the regressed resume cursor). A
	// failed checkpoint leaves the partial folded in memory but not
	// durable: drop the session WITHOUT acknowledging — the next applied
	// partial's full-state checkpoint covers this one too.
	d.cursor = sb.Seq
	if t.cfg.CheckpointPath != "" && s.checkpointLocked(t) != nil {
		s.mu.Unlock()
		return false
	}
	ack := Ack{Node: key, Seq: d.cursor}
	s.mu.Unlock()
	if sess.send(frameAck, &ack) != nil {
		return false
	}
	s.checkCompletion(t)
	return true
}

// DistrictPartial is one completed district's contribution to the metro
// merge: the exact fold snapshot over its piconet range, plus the overlay
// partial when the district owned it. This is what btsink exports (sealed
// with the §9.1 trailer) and btmerge -scatternet consumes; a district's
// checkpoint is the same document taken mid-range, plus its final cursor.
type DistrictPartial struct {
	Keyspace string                           `json:"keyspace,omitempty"`
	Campaign CampaignID                       `json:"campaign"`
	Net      ScatterNet                       `json:"net"`
	Lo       int                              `json:"lo"`
	Hi       int                              `json:"hi"`
	Fold     *analysis.ScatternetFoldSnapshot `json:"fold"`
	Overlay  *analysis.OverlayPartial         `json:"overlay,omitempty"`
}

// WaitDistrict blocks until the named district's piconet range has fully
// folded and its agent was released, then returns its sealed partial. A
// zero timeout waits indefinitely.
func (s *Sink) WaitDistrict(key string, timeout time.Duration) (*DistrictPartial, error) {
	t, err := s.wait(nsKey{district: true, key: key}, timeout)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return t.district.partial, nil
}

// MergeDistricts rebuilds the metro rollup from a completed campaign's
// district partials: it validates campaign and scatternet agreement and
// exact disjoint coverage of [0, Piconets) (the MergeAggregates idiom one
// tier up), merges the folds in ascending range order, and finalizes — the
// trace re-sort inside Finalize is what makes the result independent of
// both district count and arrival order. The overlay partial (exactly one,
// from the piconet-0 district, iff the campaign has bridges) carries its
// own pre-merged accumulators. The returned rollup renders byte-identically
// to the single-process `-scatternet -rollup -stream` run.
func MergeDistricts(parts []*DistrictPartial) (*analysis.ScatternetRollup, *analysis.RedundancyTable, error) {
	if len(parts) == 0 {
		return nil, nil, fmt.Errorf("collector: no district partials to merge")
	}
	sorted := append([]*DistrictPartial(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	first := sorted[0]
	var overlay *analysis.OverlayPartial
	next := 0
	for _, p := range sorted {
		if p.Campaign != first.Campaign || p.Net != first.Net {
			return nil, nil, fmt.Errorf("collector: district partials disagree on the campaign "+
				"(%q runs seed %d over %d piconets; %q runs seed %d over %d piconets)",
				first.Keyspace, first.Campaign.Seed, first.Net.Piconets,
				p.Keyspace, p.Campaign.Seed, p.Net.Piconets)
		}
		if p.Hi <= p.Lo || p.Hi > first.Net.Piconets {
			return nil, nil, fmt.Errorf("collector: district %q claims invalid piconet range [%d:%d) of %d",
				p.Keyspace, p.Lo, p.Hi, first.Net.Piconets)
		}
		if p.Lo < next {
			return nil, nil, fmt.Errorf("collector: district ranges overlap at piconet %d "+
				"(%q claims [%d:%d))", next, p.Keyspace, p.Lo, p.Hi)
		}
		if p.Lo > next {
			return nil, nil, fmt.Errorf("collector: piconets [%d:%d) covered by no district partial", next, p.Lo)
		}
		next = p.Hi
		if p.Overlay != nil {
			if first.Net.Bridges <= 0 {
				return nil, nil, fmt.Errorf("collector: district %q ships an overlay partial but the campaign has no bridges", p.Keyspace)
			}
			if overlay != nil {
				return nil, nil, fmt.Errorf("collector: two districts ship overlay partials")
			}
			if p.Lo != 0 {
				return nil, nil, fmt.Errorf("collector: overlay partial from district %q, which does not own piconet 0", p.Keyspace)
			}
			overlay = p.Overlay
		}
	}
	if next != first.Net.Piconets {
		return nil, nil, fmt.Errorf("collector: piconets [%d:%d) covered by no district partial",
			next, first.Net.Piconets)
	}
	if first.Net.Bridges > 0 && overlay == nil {
		return nil, nil, fmt.Errorf("collector: campaign has %d bridges but no district shipped the overlay partial",
			first.Net.Bridges)
	}
	var fold *analysis.ScatternetFold
	for _, p := range sorted {
		f, err := analysis.RestoreScatternetFold(p.Fold)
		if err != nil {
			return nil, nil, fmt.Errorf("collector: district %q fold: %w", p.Keyspace, err)
		}
		if fold == nil {
			fold = f
		} else if err := fold.Merge(f); err != nil {
			return nil, nil, fmt.Errorf("collector: merge district %q: %w", p.Keyspace, err)
		}
	}
	roll, err := fold.Rollup(first.Net.Piconets, first.Net.ProbeSample)
	if err != nil {
		return nil, nil, err
	}
	var redundancy *analysis.RedundancyTable
	if overlay != nil {
		if overlay.Bridges != nil {
			roll.Bridges, roll.BridgeCount = analysis.RestoreBridgeAccum(overlay.Bridges), overlay.BridgeCount
		}
		if overlay.RelayDepth != nil {
			roll.RelayDepth = analysis.RestoreRelayDepthAccum(overlay.RelayDepth)
		}
		redundancy = &analysis.RedundancyTable{Rows: overlay.Redundancy}
	}
	return roll, redundancy, nil
}

// ScatterAgentConfig configures one scatternet agent: the district sink it
// reports to, its piconet range, and the campaign callbacks that produce
// the partials. The callbacks keep the collector campaign-agnostic (it
// never imports the scatternet engine) and give tests a seam for crash
// injection.
type ScatterAgentConfig struct {
	// Addr is the district sink's TCP address.
	Addr string
	// Keyspace names the district keyspace at the sink.
	Keyspace string
	// Campaign identifies the campaign; must match the district's exactly.
	Campaign CampaignID
	// Net is the scatternet identity; must match the district's exactly.
	Net ScatterNet
	// Lo, Hi bound this agent's piconet range [Lo, Hi): the district's
	// whole range. The range starting at piconet 0 of a bridged campaign
	// also ships the bridge overlay.
	Lo, Hi int
	// RunPiconet produces piconet p's partial. Piconet worlds are
	// deterministic in (seed, p), so the agent keeps no WAL: after a crash
	// it simply re-runs the piconets past the sink's resume cursor and
	// regenerates byte-identical partials.
	RunPiconet func(p int) (*analysis.PiconetPartial, error)
	// RunOverlay produces the overlay partial (required when the range
	// owes it).
	RunOverlay func() (*analysis.OverlayPartial, error)

	// RetryMin / RetryMax bound the jittered exponential reconnect backoff
	// (defaults 100 ms / 5 s), seeded by RetrySeed.
	RetryMin  time.Duration
	RetryMax  time.Duration
	RetrySeed int64
	// StallTimeout triggers retransmission of the outstanding work item (or
	// the Done) when its acknowledgement (or Fin) does not arrive, and
	// bounds the handshake and each frame write (default 5 s).
	StallTimeout time.Duration
	// Fault injects deterministic faults into outgoing kind-8 data frames
	// (control frames are never injected), exercising the retransmission
	// machinery exactly like the flat agent's injector.
	Fault FaultConfig
}

// ScatterAgent is one scatternet district agent: the shared session engine
// (link) shipping fold partials stop-and-wait. Build it with
// NewScatterAgent, drive it with Run, then read its transport counters.
type ScatterAgent struct {
	link  // its mu guards cursor and maxSent
	cfg   ScatterAgentConfig
	key   string
	total uint64

	cursor    uint64 // work items acknowledged durable by the sink
	maxSent   uint64 // highest work item ever sent (retransmit accounting)
	cachedSeq uint64
	cached    []byte // encoded kind-8 frame for cachedSeq
}

// NewScatterAgent validates the configuration and builds the agent.
func NewScatterAgent(cfg ScatterAgentConfig) (*ScatterAgent, error) {
	if cfg.Lo < 0 || cfg.Hi <= cfg.Lo {
		return nil, fmt.Errorf("collector: scatternet agent range [%d:%d) is empty", cfg.Lo, cfg.Hi)
	}
	if cfg.RunPiconet == nil {
		return nil, fmt.Errorf("collector: scatternet agent without a RunPiconet callback")
	}
	overlay := owesOverlay(cfg.Net, cfg.Lo)
	if overlay && cfg.RunOverlay == nil {
		return nil, fmt.Errorf("collector: overlay-owning scatternet agent without a RunOverlay callback")
	}
	if err := cfg.Fault.Validate(); err != nil {
		return nil, err
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 5 * time.Second
	}
	a := &ScatterAgent{
		cfg:   cfg,
		key:   scatterRangeKey(cfg.Lo, cfg.Hi),
		total: uint64(cfg.Hi - cfg.Lo),
	}
	if overlay {
		a.total++
	}
	a.init(cfg.Addr, retryPolicy{min: cfg.RetryMin, max: cfg.RetryMax,
		seed: cfg.RetrySeed}, cfg.StallTimeout, cfg.Fault)
	return a, nil
}

// Run drives the agent to completion: dial, handshake, ship every work item
// stop-and-wait, Done, Fin. It reconnects with jittered exponential backoff
// through sink restarts and transient rejects, and returns nil only after
// the sink released the session with Fin.
func (a *ScatterAgent) Run() error {
	a.redial(a.session)
	select {
	case <-a.fin:
		return nil
	default:
		return a.Err()
	}
}

// session drives one connection: handshake, ship the remaining work items
// stop-and-wait, then Done until Fin. It reports whether the sink answered
// with Resume (backoff reset).
func (a *ScatterAgent) session(conn net.Conn) bool {
	res := a.handshake(conn, &Hello{Campaign: a.cfg.Campaign, Keyspace: a.cfg.Keyspace,
		Testbed: a.key, Scatter: &ScatterHello{
			Net: a.cfg.Net, Lo: a.cfg.Lo, Hi: a.cfg.Hi}})
	if res == nil {
		return false
	}
	a.mu.Lock()
	acked, ok := a.resumeLocked(res, a.key, a.key, a.cursor)
	a.cursor = max(a.cursor, acked)
	a.mu.Unlock()
	if !ok {
		return true
	}

	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		a.read(conn, func(ack *Ack) bool {
			if ack.Node != a.key || ack.Seq <= a.cursor {
				return false
			}
			a.cursor = ack.Seq
			a.signal()
			return true
		})
	}()
	defer func() {
		conn.Close()
		<-readerDone
	}()

	stall := time.NewTimer(a.cfg.StallTimeout)
	defer stall.Stop()
	var inFlight uint64 // work item on the wire, awaiting its ack
	doneSent := false
	stalls := 0
	for {
		a.mu.Lock()
		cursor := a.cursor
		a.mu.Unlock()
		switch {
		case cursor < a.total && inFlight <= cursor:
			seq := cursor + 1
			if a.cachedSeq != seq {
				frame, err := a.encodeItem(seq)
				if err != nil {
					a.fatal(err)
					return true
				}
				a.cachedSeq, a.cached = seq, frame
			}
			a.mu.Lock()
			a.countSendLocked(seq, &a.maxSent)
			a.mu.Unlock()
			if a.send(conn, a.cached) != nil {
				return true
			}
			inFlight = seq
			stall.Reset(a.cfg.StallTimeout)
		case cursor == a.total && !doneSent:
			// Every work item is durable: release the cached frame and
			// declare the range done.
			a.cachedSeq, a.cached = 0, nil
			if a.sendDone(conn, &Done{Testbed: a.key, Duration: a.cfg.Campaign.Duration,
				Final: []StreamCursor{{Node: a.key, Seq: a.total}}}) != nil {
				return true
			}
			doneSent = true
			stall.Reset(a.cfg.StallTimeout)
		}
		select {
		case <-a.work:
			stalls = 0
		case <-stall.C:
			// The frame (or its ack, or the Fin) was lost: retransmit. A few
			// stalls in a row mean the connection is wedged — reconnect.
			if stalls++; stalls >= 8 {
				return true
			}
			inFlight, doneSent = 0, false
		case <-readerDone:
			return true
		case <-a.fin:
			return true
		case <-a.closed:
			return true
		}
	}
}

// encodeItem computes work item seq (running the piconet world or the
// overlay) and renders its complete kind-8 frame, so the fault injector can
// hold, duplicate or drop it whole.
func (a *ScatterAgent) encodeItem(seq uint64) ([]byte, error) {
	sb := ScatterBatch{Seq: seq}
	if items := uint64(a.cfg.Hi - a.cfg.Lo); seq <= items {
		p, err := a.cfg.RunPiconet(a.cfg.Lo + int(seq) - 1)
		if err != nil {
			return nil, err
		}
		sb.Piconet = p
	} else {
		ov, err := a.cfg.RunOverlay()
		if err != nil {
			return nil, err
		}
		if ov == nil {
			return nil, fmt.Errorf("collector: overlay-owning agent produced no overlay partial")
		}
		sb.Overlay = ov
	}
	return jsonFrame(frameScatter, &sb)
}
