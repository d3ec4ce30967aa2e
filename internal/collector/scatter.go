package collector

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
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
// single-process `btcampaign -scatternet -rollup -stream` run.

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
// scatternet identity plus the agent's claimed piconet range. Overlay marks
// the session that will ship the bridge-overlay partial as its last work
// item — by convention exactly the range starting at piconet 0 when the
// campaign has bridges.
type ScatterHello struct {
	Net     ScatterNet `json:"net"`
	Lo      int        `json:"lo"`
	Hi      int        `json:"hi"`
	Overlay bool       `json:"overlay,omitempty"`
}

// ScatterBatch is one kind-8 data frame: work item Seq of the session's
// range. Seq 1..(hi-lo) carry piconet partials for piconets lo..hi-1 in
// order; on an overlay-owning session, seq hi-lo+1 carries the overlay
// partial. Exactly one of Piconet/Overlay is set.
type ScatterBatch struct {
	Seq     uint64                   `json:"seq"`
	Piconet *analysis.PiconetPartial `json:"piconet,omitempty"`
	Overlay *analysis.OverlayPartial `json:"overlay,omitempty"`
}

// scatterRangeKey names a piconet range — the stream/cursor key of a
// district session, the analogue of a flat stream's node name.
func scatterRangeKey(lo, hi int) string { return fmt.Sprintf("%d:%d", lo, hi) }

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
	// Lo, Hi bound the piconet range [Lo, Hi) this district accepts.
	Lo, Hi int
	// CheckpointPath enables a durable checkpoint after every applied
	// partial; empty runs the district in memory only.
	CheckpointPath string
}

// districtWantsOverlay reports whether the district's range owes the
// overlay partial: the range containing piconet 0, when the campaign has
// bridges at all.
func districtWantsOverlay(cfg DistrictConfig) bool {
	return cfg.Lo == 0 && cfg.Net.Bridges > 0
}

// scatterCursor is one registered range's durable progress: the range
// bounds (so restarts can police overlaps without re-hearing the Hello) and
// the cumulative applied-and-checkpointed work-item cursor.
type scatterCursor struct {
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Overlay bool   `json:"overlay,omitempty"`
	Seq     uint64 `json:"seq"`
}

// district is one scatternet district keyspace's private state.
type district struct {
	cfg     DistrictConfig
	fold    *analysis.ScatternetFold
	folded  []bool // [Hi-Lo): piconet Lo+i folded
	foldedN int
	overlay *analysis.OverlayPartial

	cursors  map[string]*scatterCursor // per range key
	finals   map[string]uint64         // range key -> final work-item count from Done
	finished map[string]bool
	sessions map[string]*sinkSession // latest session per range key
	partial  *DistrictPartial        // set at completion

	applied     int // partials folded (first delivery)
	duplicates  int // frames filtered as retransmitted duplicates
	rejected    int // frames refused as protocol errors
	ckptFails   int
	lastCkptErr error

	done chan struct{}
}

// districtCheckpoint is one district's on-disk state. The fold snapshot is
// exact (see analysis.ScatternetFoldSnapshot), so restart + resume is
// bit-identical to never having crashed.
type districtCheckpoint struct {
	Campaign CampaignID `json:"campaign"`
	Keyspace string     `json:"keyspace,omitempty"`
	Net      ScatterNet `json:"net"`
	Lo       int        `json:"lo"`
	Hi       int        `json:"hi"`

	Fold    *analysis.ScatternetFoldSnapshot `json:"fold"`
	Folded  []bool                           `json:"folded"`
	Overlay *analysis.OverlayPartial         `json:"overlay,omitempty"`
	Cursors map[string]*scatterCursor        `json:"cursors,omitempty"`
	Finals  map[string]uint64                `json:"finals,omitempty"`
}

// newDistrict builds one district keyspace, resuming from its checkpoint
// file when it exists.
func newDistrict(cfg DistrictConfig) (*district, error) {
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
	d := &district{
		cfg:      cfg,
		folded:   make([]bool, cfg.Hi-cfg.Lo),
		cursors:  make(map[string]*scatterCursor),
		finals:   make(map[string]uint64),
		finished: make(map[string]bool),
		sessions: make(map[string]*sinkSession),
		done:     make(chan struct{}),
	}
	if cfg.CheckpointPath != "" {
		if blob, err := ReadFileDurable(cfg.CheckpointPath); err == nil {
			var cp districtCheckpoint
			if err := json.Unmarshal(blob, &cp); err != nil {
				return nil, fmt.Errorf("collector: corrupt district checkpoint %s: %w", cfg.CheckpointPath, err)
			}
			if cp.Campaign != cfg.Campaign || cp.Keyspace != cfg.Key ||
				cp.Net != cfg.Net || cp.Lo != cfg.Lo || cp.Hi != cfg.Hi {
				return nil, fmt.Errorf("collector: checkpoint %s is from a different district "+
					"(keyspace %q, seed %d, piconets [%d:%d) of %d; this district is %q, seed %d, "+
					"piconets [%d:%d) of %d) — delete it to start over", cfg.CheckpointPath,
					cp.Keyspace, cp.Campaign.Seed, cp.Lo, cp.Hi, cp.Net.Piconets,
					cfg.Key, cfg.Campaign.Seed, cfg.Lo, cfg.Hi, cfg.Net.Piconets)
			}
			fold, err := analysis.RestoreScatternetFold(cp.Fold)
			if err != nil {
				return nil, fmt.Errorf("collector: restore district checkpoint %s: %w", cfg.CheckpointPath, err)
			}
			if len(cp.Folded) != cfg.Hi-cfg.Lo {
				return nil, fmt.Errorf("collector: checkpoint %s folded bitmap covers %d piconets, range has %d",
					cfg.CheckpointPath, len(cp.Folded), cfg.Hi-cfg.Lo)
			}
			d.fold = fold
			copy(d.folded, cp.Folded)
			for _, b := range cp.Folded {
				if b {
					d.foldedN++
				}
			}
			d.overlay = cp.Overlay
			for k, c := range cp.Cursors {
				d.cursors[k] = c
			}
			for k, f := range cp.Finals {
				d.finals[k] = f
			}
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("collector: read district checkpoint: %w", err)
		}
	}
	if d.fold == nil {
		d.fold = analysis.NewScatternetFold(cfg.ScenarioName)
	}
	return d, nil
}

// districtCheckpointLocked serializes one district's full state to its
// checkpoint file (guard trailer, previous-good rotation, atomic rename).
// Acknowledgements cover exactly what this writes: the cursor IS the
// ackable position, advanced only after the checkpoint lands. Caller holds
// mu.
func (s *Sink) districtCheckpointLocked(d *district) error {
	blob, err := json.Marshal(&districtCheckpoint{
		Campaign: d.cfg.Campaign, Keyspace: d.cfg.Key, Net: d.cfg.Net,
		Lo: d.cfg.Lo, Hi: d.cfg.Hi,
		Fold: d.fold.Snapshot(), Folded: d.folded, Overlay: d.overlay,
		Cursors: d.cursors, Finals: d.finals,
	})
	if err != nil {
		return err
	}
	return WriteFileDurable(d.cfg.CheckpointPath, blob)
}

// serveScatter drives one district session (the Hello carried a Scatter
// claim). Validation mirrors the flat path's typed rejects: service
// conditions are retryable, configuration errors fatal.
func (s *Sink) serveScatter(conn net.Conn, hello *Hello) {
	sc := hello.Scatter
	s.mu.Lock()
	draining := s.draining
	d := s.districts[hello.Keyspace]
	s.mu.Unlock()
	switch {
	case draining:
		s.rejectHello(conn, RejectDraining, "sink is draining; retry against its replacement")
		return
	case d == nil:
		s.rejectHello(conn, RejectUnknownCampaign,
			"no district registered under keyspace %q (yet)", hello.Keyspace)
		return
	case hello.Campaign != d.cfg.Campaign:
		s.rejectHello(conn, RejectCampaignMismatch,
			"campaign mismatch: agent runs seed %d, %v, scenario %d; district %q runs seed %d, %v, scenario %d",
			hello.Campaign.Seed, hello.Campaign.Duration, hello.Campaign.Scenario,
			hello.Keyspace, d.cfg.Campaign.Seed, d.cfg.Campaign.Duration, d.cfg.Campaign.Scenario)
		return
	case sc.Net != d.cfg.Net:
		s.rejectHello(conn, RejectCampaignMismatch,
			"scatternet mismatch: agent runs %+v; district %q runs %+v", sc.Net, hello.Keyspace, d.cfg.Net)
		return
	case sc.Lo < d.cfg.Lo || sc.Hi > d.cfg.Hi || sc.Lo >= sc.Hi:
		s.rejectHello(conn, RejectUnknownShard,
			"piconet range [%d:%d) outside district %q's [%d:%d)",
			sc.Lo, sc.Hi, hello.Keyspace, d.cfg.Lo, d.cfg.Hi)
		return
	case sc.Overlay != (sc.Lo == 0 && d.cfg.Net.Bridges > 0):
		s.rejectHello(conn, RejectUnknownShard,
			"overlay ownership violation for range [%d:%d): the range starting at piconet 0 "+
				"carries the overlay exactly when the campaign has bridges (%d configured)",
			sc.Lo, sc.Hi, d.cfg.Net.Bridges)
		return
	}
	key := scatterRangeKey(sc.Lo, sc.Hi)
	s.mu.Lock()
	for k, cur := range d.cursors {
		if k != key && sc.Lo < cur.Hi && cur.Lo < sc.Hi {
			s.mu.Unlock()
			s.rejectHello(conn, RejectUnknownShard,
				"piconet range [%d:%d) overlaps already-registered [%d:%d) in district %q",
				sc.Lo, sc.Hi, cur.Lo, cur.Hi, hello.Keyspace)
			return
		}
	}
	cur := d.cursors[key]
	if cur == nil {
		cur = &scatterCursor{Lo: sc.Lo, Hi: sc.Hi, Overlay: sc.Overlay}
		d.cursors[key] = cur
	}
	sess := &sinkSession{conn: conn, timeout: s.cfg.WriteTimeout}
	d.sessions[key] = sess
	res := Resume{Cursors: []StreamCursor{{Node: key, Seq: cur.Seq}}}
	s.mu.Unlock()
	if sess.send(frameResume, &res) != nil {
		return
	}
	for {
		fr, err := ReadFrame(conn)
		if err != nil {
			return
		}
		switch fr.Kind {
		case KindScatter:
			if !s.handleScatter(d, sess, key, fr.Scatter) {
				return
			}
		case KindDone:
			s.handleScatterDone(d, key, fr.Done)
		default:
			return // protocol violation
		}
	}
}

// handleScatter applies one kind-8 frame under stop-and-wait discipline:
// only the next expected work item is applied (then checkpointed, then
// acknowledged); retransmissions re-acknowledge the cursor; frames from the
// future (reorder injection) are ignored and recovered by the agent's stall
// retransmission. It reports whether the session should continue.
func (s *Sink) handleScatter(d *district, sess *sinkSession, key string, sb *ScatterBatch) bool {
	if sb == nil {
		return false
	}
	s.mu.Lock()
	cur := d.cursors[key]
	if cur == nil {
		s.mu.Unlock()
		return false
	}
	if sb.Seq <= cur.Seq {
		d.duplicates++
		ack := Ack{Node: key, Seq: cur.Seq}
		s.mu.Unlock()
		return sess.send(frameAck, &ack) == nil
	}
	if sb.Seq != cur.Seq+1 {
		s.mu.Unlock()
		return true
	}
	items := uint64(cur.Hi - cur.Lo)
	var applyErr error
	switch {
	case sb.Seq <= items:
		p := cur.Lo + int(sb.Seq) - 1
		switch {
		case sb.Piconet == nil || sb.Piconet.Piconet != p:
			applyErr = fmt.Errorf("work item %d of range %s must be piconet %d's partial", sb.Seq, key, p)
		case d.folded[p-d.cfg.Lo]:
			applyErr = fmt.Errorf("piconet %d already folded", p)
		default:
			if applyErr = d.fold.AddPartial(sb.Piconet); applyErr == nil {
				d.folded[p-d.cfg.Lo] = true
				d.foldedN++
			}
		}
	case cur.Overlay && sb.Seq == items+1:
		switch {
		case sb.Overlay == nil:
			applyErr = fmt.Errorf("work item %d of range %s must be the overlay partial", sb.Seq, key)
		case d.overlay != nil:
			applyErr = fmt.Errorf("duplicate overlay partial")
		default:
			d.overlay = sb.Overlay
		}
	default:
		applyErr = fmt.Errorf("work item %d beyond range %s's %d items", sb.Seq, key, items)
	}
	if applyErr != nil {
		d.rejected++
		s.mu.Unlock()
		return false
	}
	d.applied++
	// The cursor advances BEFORE the checkpoint so the durable state is
	// self-consistent: the checkpoint that contains this partial's fold also
	// says it was applied. Checkpointing the old cursor would make a restore
	// re-request work the fold already holds — and an agent that saw the ack
	// would correctly abort on the regressed resume cursor.
	cur.Seq = sb.Seq
	if d.cfg.CheckpointPath != "" {
		if err := s.districtCheckpointLocked(d); err != nil {
			// The partial is folded in memory (cursor advanced to match) but
			// not durable: record the failure and drop the session WITHOUT
			// acknowledging — the next applied partial's full-state
			// checkpoint covers this one too.
			d.ckptFails++
			d.lastCkptErr = err
			s.mu.Unlock()
			return false
		}
	}
	ack := Ack{Node: key, Seq: cur.Seq}
	s.mu.Unlock()
	if sess.send(frameAck, &ack) != nil {
		return false
	}
	s.checkScatterCompletion(d)
	return true
}

// handleScatterDone records a range's final work-item count and releases
// the agent with Fin once (and only once) the cursor covers it durably.
func (s *Sink) handleScatterDone(d *district, key string, done *Done) {
	if done == nil {
		return
	}
	var final uint64
	for _, c := range done.Final {
		if c.Node == key {
			final = c.Seq
		}
	}
	if final == 0 {
		return
	}
	s.mu.Lock()
	if d.finished[key] {
		// Re-sent Done after a reconnect: answer with Fin again.
		sess := d.sessions[key]
		s.mu.Unlock()
		if sess != nil {
			sess.send(frameFin, &Fin{})
		}
		return
	}
	d.finals[key] = final
	if d.cfg.CheckpointPath != "" && d.partial == nil {
		if err := s.districtCheckpointLocked(d); err != nil {
			d.ckptFails++
			d.lastCkptErr = err
			s.mu.Unlock()
			return
		}
	}
	s.mu.Unlock()
	s.checkScatterCompletion(d)
}

// checkScatterCompletion releases ranges whose final cursors are durable,
// and seals the district partial once every piconet in [Lo, Hi) is folded
// (plus the overlay, when this district owes it) and every range that
// opened a session is released. Fin frames go out synchronously BEFORE the
// done channel closes, same as the flat path: btsink exits once every
// keyspace completes, so completing on the last fold alone, ahead of the
// agent's Done, could leave that agent redialling a closed listener.
func (s *Sink) checkScatterCompletion(d *district) {
	s.mu.Lock()
	var fins []*sinkSession
	for key, final := range d.finals {
		if d.finished[key] {
			continue
		}
		cur := d.cursors[key]
		if cur == nil || cur.Seq < final {
			continue
		}
		d.finished[key] = true
		if sess := d.sessions[key]; sess != nil {
			fins = append(fins, sess)
		}
	}
	complete := d.partial == nil && len(d.finished) == len(d.cursors) &&
		d.foldedN == d.cfg.Hi-d.cfg.Lo &&
		(!districtWantsOverlay(d.cfg) || d.overlay != nil)
	if complete {
		d.partial = &DistrictPartial{
			Keyspace: d.cfg.Key, Campaign: d.cfg.Campaign, Net: d.cfg.Net,
			Lo: d.cfg.Lo, Hi: d.cfg.Hi,
			Fold: d.fold.Snapshot(), Overlay: d.overlay,
		}
	}
	s.mu.Unlock()
	for _, sess := range fins {
		sess.send(frameFin, &Fin{})
	}
	if complete {
		close(d.done)
	}
}

// DistrictPartial is one completed district's contribution to the metro
// merge: the exact fold snapshot over its piconet range, plus the overlay
// partial when the district owned it. This is what btsink exports (sealed
// with the §9.1 trailer) and btmerge -scatternet consumes.
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
// folded, then returns its sealed partial. A zero timeout waits
// indefinitely.
func (s *Sink) WaitDistrict(key string, timeout time.Duration) (*DistrictPartial, error) {
	s.mu.Lock()
	d := s.districts[key]
	s.mu.Unlock()
	if d == nil {
		return nil, fmt.Errorf("collector: wait on unknown district %q", key)
	}
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	select {
	case <-d.done:
	case <-timeoutCh:
		s.mu.Lock()
		foldedN, applied, dups, rejected := d.foldedN, d.applied, d.duplicates, d.rejected
		overlayMissing := districtWantsOverlay(d.cfg) && d.overlay == nil
		ckptFails, ckptErr := d.ckptFails, d.lastCkptErr
		s.mu.Unlock()
		msg := fmt.Sprintf("collector: district %q incomplete after %v (%d/%d piconets folded, %d applied, %d duplicates, %d rejected)",
			key, timeout, foldedN, d.cfg.Hi-d.cfg.Lo, applied, dups, rejected)
		if overlayMissing {
			msg += "; overlay partial not received"
		}
		if ckptFails > 0 {
			msg += fmt.Sprintf("; %d checkpoint write failures, last: %v", ckptFails, ckptErr)
		}
		return nil, fmt.Errorf("%s", msg)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return d.partial, nil
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
	agg, overview, err := fold.Finalize()
	if err != nil {
		return nil, nil, err
	}
	// Report normalization of the sampling fraction: <=0 (unset) and >=1
	// both mean exhaustive. Must match scatternet.ProbeFraction exactly.
	frac := first.Net.ProbeSample
	if frac <= 0 || frac >= 1 {
		frac = 1
	}
	roll := &analysis.ScatternetRollup{
		Piconets:          first.Net.Piconets,
		Scenario:          fold.Scenario(),
		Agg:               agg,
		Overview:          overview,
		ProbePairFraction: frac,
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
	// Lo, Hi bound this agent's piconet range [Lo, Hi).
	Lo, Hi int
	// Overlay marks this agent as the bridge-overlay owner; must be set
	// exactly when Lo == 0 and the campaign has bridges.
	Overlay bool
	// RunPiconet produces piconet p's partial. Piconet worlds are
	// deterministic in (seed, p), so the agent keeps no WAL: after a crash
	// it simply re-runs the piconets past the sink's resume cursor and
	// regenerates byte-identical partials.
	RunPiconet func(p int) (*analysis.PiconetPartial, error)
	// RunOverlay produces the overlay partial (required when Overlay).
	RunOverlay func() (*analysis.OverlayPartial, error)

	// DialTimeout bounds one connection attempt (default 2 s).
	DialTimeout time.Duration
	// RetryMin / RetryMax bound the jittered exponential reconnect backoff
	// (defaults 100 ms / 5 s), seeded by RetrySeed.
	RetryMin  time.Duration
	RetryMax  time.Duration
	RetrySeed int64
	// StallTimeout triggers retransmission of the outstanding work item
	// when its acknowledgement does not arrive (default 5 s).
	StallTimeout time.Duration
	// Fault injects deterministic faults into outgoing kind-8 data frames
	// (control frames are never injected), exercising the retransmission
	// machinery exactly like the flat agent's injector.
	Fault FaultConfig
}

// scatterFatal marks errors that must stop the agent rather than be
// retried: typed fatal rejects, partial-computation failures, and a resume
// cursor that regressed below what the sink once acknowledged.
type scatterFatal struct{ err error }

func (e *scatterFatal) Error() string { return e.err.Error() }
func (e *scatterFatal) Unwrap() error { return e.err }

// RunScatterAgent runs one scatternet agent to completion: dial, handshake,
// ship every work item stop-and-wait, Done, Fin. It reconnects with
// jittered exponential backoff through sink restarts and transient rejects,
// and returns nil only after the sink released the session with Fin.
func RunScatterAgent(cfg ScatterAgentConfig) error {
	if cfg.Lo < 0 || cfg.Hi <= cfg.Lo {
		return fmt.Errorf("collector: scatternet agent range [%d:%d) is empty", cfg.Lo, cfg.Hi)
	}
	if cfg.RunPiconet == nil {
		return fmt.Errorf("collector: scatternet agent without a RunPiconet callback")
	}
	if cfg.Overlay && cfg.RunOverlay == nil {
		return fmt.Errorf("collector: overlay-owning scatternet agent without a RunOverlay callback")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.RetryMin <= 0 {
		cfg.RetryMin = 100 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 5 * time.Second
	}
	if cfg.RetryMax < cfg.RetryMin {
		cfg.RetryMax = cfg.RetryMin
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 5 * time.Second
	}
	a := &scatterAgent{
		cfg:   cfg,
		key:   scatterRangeKey(cfg.Lo, cfg.Hi),
		total: uint64(cfg.Hi - cfg.Lo),
		inj:   newFaultInjector(cfg.Fault),
	}
	if cfg.Overlay {
		a.total++
	}
	rng := rand.New(rand.NewSource(cfg.RetrySeed))
	attempt := 0
	for {
		conn, err := net.DialTimeout("tcp", cfg.Addr, cfg.DialTimeout)
		if err == nil {
			done, resumed, serr := a.session(conn)
			conn.Close()
			if done {
				return nil
			}
			var fatal *scatterFatal
			if errors.As(serr, &fatal) {
				return fatal.err
			}
			if resumed {
				attempt = 0
				continue
			}
		}
		time.Sleep(scatterBackoff(cfg.RetryMin, cfg.RetryMax, rng, attempt))
		attempt++
	}
}

// scatterBackoff mirrors the flat agent's reconnect delay: capped
// exponential growth jittered over the upper half of the window.
func scatterBackoff(min, max time.Duration, rng *rand.Rand, attempt int) time.Duration {
	d := min
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// scatterAgent is RunScatterAgent's connection-spanning state: the
// cumulative acknowledged cursor and the cached encoding of the one
// outstanding work item (stop-and-wait ships at most one).
type scatterAgent struct {
	cfg   ScatterAgentConfig
	key   string
	total uint64
	inj   *faultInjector

	cursor    uint64 // work items acknowledged durable by the sink
	cachedSeq uint64
	cached    []byte // encoded kind-8 frame for cachedSeq
}

// session drives one connection: handshake, ship the remaining work items
// stop-and-wait, then Done/Fin. It reports (finished, resumed, error);
// fatal errors are wrapped in scatterFatal.
func (a *scatterAgent) session(conn net.Conn) (bool, bool, error) {
	hello := Hello{Campaign: a.cfg.Campaign, Keyspace: a.cfg.Keyspace,
		Testbed: a.key, Scatter: &ScatterHello{
			Net: a.cfg.Net, Lo: a.cfg.Lo, Hi: a.cfg.Hi, Overlay: a.cfg.Overlay}}
	if err := writeControl(conn, frameHello, hello); err != nil {
		return false, false, nil
	}
	conn.SetReadDeadline(time.Now().Add(a.cfg.StallTimeout))
	fr, err := ReadFrame(conn)
	if err != nil {
		return false, false, nil
	}
	if fr.Kind == KindReject {
		if fr.Reject.Retryable() {
			return false, false, nil
		}
		return false, false, &scatterFatal{fmt.Errorf("collector: sink refused district session: %s", fr.Reject.Error())}
	}
	if fr.Kind != KindResume {
		return false, false, nil
	}
	var acked uint64
	for _, c := range fr.Resume.Cursors {
		if c.Node == a.key {
			acked = c.Seq
		}
	}
	if acked < a.cursor {
		return false, true, &scatterFatal{fmt.Errorf(
			"collector: district sink lost durable state: resume cursor %d below acknowledged %d "+
				"(restarted without its checkpoint?)", acked, a.cursor)}
	}
	a.cursor = acked

	stalls := 0
	for a.cursor < a.total {
		seq := a.cursor + 1
		if a.cachedSeq != seq {
			frame, err := a.encodeItem(seq)
			if err != nil {
				return false, true, &scatterFatal{err}
			}
			a.cachedSeq, a.cached = seq, frame
		}
		frames, delay := a.inj.apply(a.cached)
		if delay > 0 {
			time.Sleep(delay)
		}
		for _, f := range frames {
			if _, err := conn.Write(f); err != nil {
				return false, true, nil
			}
		}
		conn.SetReadDeadline(time.Now().Add(a.cfg.StallTimeout))
		fr, err := ReadFrame(conn)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				// The frame (or its ack) was lost: retransmit. A few
				// stalls in a row mean the connection is wedged —
				// reconnect instead.
				if stalls++; stalls >= 8 {
					return false, true, nil
				}
				continue
			}
			return false, true, nil
		}
		stalls = 0
		switch fr.Kind {
		case KindAck:
			if fr.Ack.Node == a.key && fr.Ack.Seq > a.cursor {
				a.cursor = fr.Ack.Seq
			}
		case KindReject:
			if fr.Reject.Retryable() {
				return false, true, nil
			}
			return false, true, &scatterFatal{fmt.Errorf("collector: district sink rejected session: %s", fr.Reject.Error())}
		default:
			return false, true, nil
		}
	}
	// Every work item is durable; a reorder-held frame is obsolete now.
	a.inj.flush()
	a.cachedSeq, a.cached = 0, nil
	done := Done{Testbed: a.key, Duration: a.cfg.Campaign.Duration,
		Final: []StreamCursor{{Node: a.key, Seq: a.total}}}
	for {
		if err := writeControl(conn, frameDone, &done); err != nil {
			return false, true, nil
		}
		conn.SetReadDeadline(time.Now().Add(a.cfg.StallTimeout))
		fr, err := ReadFrame(conn)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				if stalls++; stalls >= 8 {
					return false, true, nil
				}
				continue
			}
			return false, true, nil
		}
		switch fr.Kind {
		case KindFin:
			return true, true, nil
		case KindAck:
			// Stale ack still in flight; keep waiting for Fin.
		case KindReject:
			if fr.Reject.Retryable() {
				return false, true, nil
			}
			return false, true, &scatterFatal{fmt.Errorf("collector: district sink rejected session: %s", fr.Reject.Error())}
		default:
			return false, true, nil
		}
	}
}

// encodeItem computes work item seq (running the piconet world or the
// overlay) and renders its complete kind-8 frame, so the fault injector can
// hold, duplicate or drop it whole.
func (a *scatterAgent) encodeItem(seq uint64) ([]byte, error) {
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
	blob, err := json.Marshal(&sb)
	if err != nil {
		return nil, fmt.Errorf("collector: marshal scatter frame: %w", err)
	}
	if 1+len(blob) > maxBatchBytes {
		return nil, fmt.Errorf("collector: scatter frame of %d bytes exceeds limit", 1+len(blob))
	}
	frame := make([]byte, 5, 5+len(blob))
	binary.BigEndian.PutUint32(frame[:4], uint32(1+len(blob)))
	frame[4] = frameScatter
	return append(frame, blob...), nil
}
