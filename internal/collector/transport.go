package collector

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// The distributed collection plane's wire protocol, specified normatively in
// PROTOCOL.md. Every frame is a 4-byte big-endian length prefix covering a
// kind byte plus payload. Kind 0 carries a record batch in the binary
// encoding and kind 8 a district partial (§12); the others are control
// frames that carry the session protocol: an agent opens with Hello, the
// sink answers with Resume (the per-stream acknowledged cursors the agent
// must resume from), data batches flow as kind-0 frames, the sink
// acknowledges durable progress with Ack, the agent announces shard
// completion with Done (final cursors + workload counters), and the sink
// releases it with Fin once everything is durable.

// Frame kinds. Kind 1 is unassigned and rejected like any unknown kind.
// Control payloads are JSON: they are rare (one Hello/Resume/Done/Fin per
// session, one small Ack per applied batch), and a debuggable handshake
// beats saving bytes there — the hot path, record batches, stays binary.
const (
	frameBatch   byte = 0
	frameHello   byte = 2
	frameResume  byte = 3
	frameAck     byte = 4
	frameDone    byte = 5
	frameFin     byte = 6
	frameReject  byte = 7
	frameScatter byte = 8
)

// FrameKind classifies a decoded frame.
type FrameKind int

// Decoded frame kinds.
const (
	KindBatch FrameKind = iota
	KindHello
	KindResume
	KindAck
	KindDone
	KindFin
	KindReject
	KindScatter
)

// CampaignID identifies the campaign every process of a deployment must
// agree on. Node lists are identical across campaigns, so without this the
// sink could silently merge shards of different seeds, durations or
// scenarios into one meaningless report; the handshake refuses mismatches
// instead, and checkpoints refuse restores from a different campaign.
type CampaignID struct {
	Seed     uint64   `json:"seed"`
	Duration sim.Time `json:"duration"`
	Scenario int      `json:"scenario"`
}

// Hello opens an agent session: it names the campaign, the testbed shard
// and the streams the agent will ship (all of which must match the sink's
// declared campaign and spec exactly). Keyspace addresses one campaign of a
// multi-tenant sink; the empty string is the sink's default keyspace, which
// keeps single-campaign deployments (and pre-keyspace agents) working
// unchanged.
type Hello struct {
	Campaign CampaignID `json:"campaign"`
	Keyspace string     `json:"keyspace,omitempty"`
	Testbed  string     `json:"testbed"`
	Nodes    []string   `json:"nodes"`
	// Scatter marks the session as a scatternet district shard (protocol
	// §12): the agent ships piconet fold partials (kind 8) instead of record
	// batches. Absent on flat-campaign sessions, so v2 sessions interoperate
	// unchanged.
	Scatter *ScatterHello `json:"scatternet,omitempty"`
}

// Typed Reject codes. Configuration errors are fatal — a misconfigured
// deployment must fail loudly, not retry forever — while service conditions
// (an unregistered keyspace, a quota quarantine, a draining sink) are
// retryable: the agent backs off and tries again rather than dying.
const (
	// RejectCampaignMismatch: the keyspace exists but is a different
	// campaign (seed/duration/scenario). Fatal.
	RejectCampaignMismatch = "campaign-mismatch"
	// RejectUnknownShard: the testbed or its node set is not in the
	// keyspace's stream spec. Fatal.
	RejectUnknownShard = "unknown-shard"
	// RejectUnknownCampaign: no such keyspace (yet) — retryable, the
	// campaign may simply not have been registered with the sink so far.
	RejectUnknownCampaign = "unknown-campaign"
	// RejectOverQuota: the keyspace exhausted its ingest quota and is
	// quarantined — retryable once an operator raises the quota.
	RejectOverQuota = "over-quota"
	// RejectDraining: the sink is shutting down gracefully and refuses new
	// work — retryable against its replacement.
	RejectDraining = "draining"
)

// Reject answers a Hello (or interrupts a session) the sink cannot serve.
// Code is one of the typed Reject* constants; Reason is the human-readable
// detail. Pre-keyspace sinks sent only Reason; an empty Code is therefore
// treated as fatal, matching their semantics.
type Reject struct {
	Code   string `json:"code,omitempty"`
	Reason string `json:"reason"`
}

// Retryable reports whether the agent should back off and retry (service
// condition) rather than fail the deployment (configuration error).
func (r *Reject) Retryable() bool {
	switch r.Code {
	case RejectUnknownCampaign, RejectOverQuota, RejectDraining:
		return true
	}
	return false
}

// Error renders the reject for error chains.
func (r *Reject) Error() string {
	if r.Code == "" {
		return r.Reason
	}
	return fmt.Sprintf("%s: %s", r.Code, r.Reason)
}

// StreamCursor is one stream's position: the highest contiguously applied
// (and, when checkpointing, durably checkpointed) sequence number and the
// watermark that came with it.
type StreamCursor struct {
	Node      string   `json:"node"`
	Seq       uint64   `json:"seq"`
	Watermark sim.Time `json:"watermark"`
}

// Resume answers a Hello with every declared stream's acknowledged cursor;
// the agent retransmits everything after these positions and discards its
// buffered copies up to them.
type Resume struct {
	Cursors []StreamCursor `json:"cursors"`
}

// Ack acknowledges one stream's durable progress. Acks are cumulative: Seq
// covers every batch up to and including it, and the agent may drop its
// buffered copies. A checkpointing sink acknowledges only checkpoint-covered
// batches — applied-but-not-yet-checkpointed work stays unacknowledged so a
// crash can demand its retransmission.
type Ack struct {
	Node      string   `json:"node"`
	Seq       uint64   `json:"seq"`
	Watermark sim.Time `json:"watermark"`
}

// Done announces that the agent's shard finished its campaign: no new data
// will be produced. Final carries each stream's last assigned sequence
// number (how the sink knows whether retransmissions are still owed) and
// Counters the per-client workload counters the §6 scalars and Figure 3a
// need, which never travel through the record stream.
type Done struct {
	Testbed  string                                `json:"testbed"`
	Duration sim.Time                              `json:"duration"`
	Final    []StreamCursor                        `json:"final"`
	Counters map[string]*workload.CountersSnapshot `json:"counters"`
}

// Fin releases a finished agent: every batch up to the final cursors is
// durable and the session is over.
type Fin struct{}

// Frame is one decoded wire frame. WireBytes is the frame's full on-wire
// size (length prefix included) — what ingest byte quotas account.
type Frame struct {
	Kind      FrameKind
	WireBytes int
	Batch     *Batch
	Hello     *Hello
	Resume    *Resume
	Ack       *Ack
	Done      *Done
	Reject    *Reject
	Scatter   *ScatterBatch
}

// jsonFrame renders one complete frame whose payload is JSON: every
// control frame, and the kind-8 district partial.
func jsonFrame(kind byte, payload any) ([]byte, error) {
	blob, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("collector: marshal frame kind %d: %w", kind, err)
	}
	if 1+len(blob) > maxBatchBytes {
		return nil, fmt.Errorf("collector: frame kind %d of %d bytes exceeds limit", kind, 1+len(blob))
	}
	frame := binary.BigEndian.AppendUint32(make([]byte, 0, 5+len(blob)), uint32(1+len(blob)))
	return append(append(frame, kind), blob...), nil
}

// writeControl frames and writes one control payload (kind byte + JSON).
func writeControl(w io.Writer, kind byte, payload any) error {
	frame, err := jsonFrame(kind, payload)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("collector: write control frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame of any kind, dispatching on the kind byte. io.EOF
// is returned unchanged when the stream ends cleanly between frames.
func ReadFrame(r io.Reader) (*Frame, error) {
	bufp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bufp)
	kind, blob, err := readEnvelope(r, bufp)
	if err != nil {
		return nil, err
	}
	fr, err := decodeFrame(kind, blob)
	if err != nil {
		return nil, err
	}
	fr.WireBytes = 5 + len(blob)
	return fr, nil
}

// decodeFrame decodes one frame body by kind byte.
func decodeFrame(kind byte, blob []byte) (*Frame, error) {
	switch kind {
	case frameBatch:
		b, err := decodeBinaryBatch(blob)
		if err != nil {
			return nil, err
		}
		return &Frame{Kind: KindBatch, Batch: b}, nil
	case frameHello:
		fr := &Frame{Kind: KindHello}
		return decodeJSON(fr, &fr.Hello, blob, "hello")
	case frameResume:
		fr := &Frame{Kind: KindResume}
		return decodeJSON(fr, &fr.Resume, blob, "resume")
	case frameAck:
		fr := &Frame{Kind: KindAck}
		return decodeJSON(fr, &fr.Ack, blob, "ack")
	case frameDone:
		fr := &Frame{Kind: KindDone}
		return decodeJSON(fr, &fr.Done, blob, "done")
	case frameFin:
		return &Frame{Kind: KindFin}, nil
	case frameReject:
		fr := &Frame{Kind: KindReject}
		return decodeJSON(fr, &fr.Reject, blob, "reject")
	case frameScatter:
		fr := &Frame{Kind: KindScatter}
		return decodeJSON(fr, &fr.Scatter, blob, "scatternet partial")
	default:
		return nil, fmt.Errorf("collector: unknown frame kind %d", kind)
	}
}

// decodeJSON decodes a JSON frame payload into a fresh *field of fr.
func decodeJSON[T any](fr *Frame, field **T, blob []byte, what string) (*Frame, error) {
	*field = new(T)
	if err := json.Unmarshal(blob, *field); err != nil {
		return nil, fmt.Errorf("collector: decode %s: %w", what, err)
	}
	return fr, nil
}

// encodeBatchFrame renders a complete data frame (length prefix + kind
// byte + payload) into a fresh buffer, so the fault injector can hold,
// duplicate or drop whole frames.
func encodeBatchFrame(b *Batch) ([]byte, error) {
	return appendBatchFrame(make([]byte, 0, 4096), b)
}

// FaultConfig injects deterministic, seeded faults into an agent's outgoing
// DATA frames, emulating a lossy collection network above the TCP session:
// whole frames are dropped, duplicated, reordered with their successor, or
// delayed. Control frames are never injected — the loss model targets the
// collection payload; the session protocol underneath is what recovers it
// (retransmission after missing acknowledgements, duplicate filtering by
// sequence number at the sink). Rates are probabilities in [0,1]; the
// decision sequence is fully determined by Seed.
type FaultConfig struct {
	Seed      uint64
	Drop      float64       // P(frame is silently discarded)
	Duplicate float64       // P(frame is sent twice)
	Reorder   float64       // P(frame swaps with the next data frame)
	DelayRate float64       // P(frame is delayed by Delay before sending)
	Delay     time.Duration // wall-clock delay applied on a delay decision
}

// Validate rejects a probability outside [0, 1], NaN included, and a
// negative delay. Each error names the btagent flag that sets the field.
func (c FaultConfig) Validate() error {
	for _, p := range []struct {
		flag string
		v    float64
	}{{"-drop", c.Drop}, {"-dup", c.Duplicate}, {"-reorder", c.Reorder}, {"-delay-rate", c.DelayRate}} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("%s %v outside [0, 1]", p.flag, p.v)
		}
	}
	if c.Delay < 0 {
		return fmt.Errorf("-delay %v is negative", c.Delay)
	}
	return nil
}

// Active reports whether any fault injection is configured.
func (c FaultConfig) Active() bool {
	return c.Drop > 0 || c.Duplicate > 0 || c.Reorder > 0 || (c.DelayRate > 0 && c.Delay > 0)
}

// faultInjector applies a FaultConfig to a sequence of encoded data frames.
type faultInjector struct {
	cfg  FaultConfig
	rng  *rand.Rand
	held []byte // frame held back by a reorder decision
}

// newFaultInjector builds the injector (nil when the config is inactive).
func newFaultInjector(cfg FaultConfig) *faultInjector {
	if !cfg.Active() {
		return nil
	}
	return &faultInjector{cfg: cfg, rng: rand.New(rand.NewSource(int64(cfg.Seed)))}
}

// apply decides one data frame's fate: the byte slices to put on the wire
// (possibly none) and a wall-clock delay to impose first.
func (f *faultInjector) apply(frame []byte) (out [][]byte, delay time.Duration) {
	if f == nil {
		return [][]byte{frame}, 0
	}
	if f.cfg.DelayRate > 0 && f.rng.Float64() < f.cfg.DelayRate {
		delay = f.cfg.Delay
	}
	if f.cfg.Drop > 0 && f.rng.Float64() < f.cfg.Drop {
		return nil, delay
	}
	if f.cfg.Duplicate > 0 && f.rng.Float64() < f.cfg.Duplicate {
		out = append(out, frame)
	}
	if f.held != nil {
		// A held frame goes out after the current one (the swap).
		out = append(out, frame, f.held)
		f.held = nil
		return out, delay
	}
	if f.cfg.Reorder > 0 && f.rng.Float64() < f.cfg.Reorder {
		f.held = frame
		return out, delay
	}
	out = append(out, frame)
	return out, delay
}

// flush returns any held frame (called before control frames and at the end
// of a write burst, so a reorder decision cannot starve the last frame).
func (f *faultInjector) flush() []byte {
	if f == nil || f.held == nil {
		return nil
	}
	h := f.held
	f.held = nil
	return h
}
