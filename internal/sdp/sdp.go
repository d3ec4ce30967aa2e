// Package sdp implements the Service Discovery Protocol of the simulated
// stack: service records, the server daemon that answers searches, and the
// client search procedure that BlueTest runs before connecting to the NAP.
//
// Table 1 failure modes carried here:
//
//   - "SDP search failed" — the search procedure terminates abnormally
//     (connection with the SDP server refused or timed out);
//   - "NAP not found" — the procedure completes but does not find the NAP
//     even though it is present (the daemon transiently misses its own
//     registry entry, "AP ... not implementing the required service, even if
//     it implements it").
//
// Server-side faults log on the server's (NAP's) system log, which is how
// the paper's Table 2 sees NAP→PANU error propagation for SDP.
package sdp

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/hci"
	"repro/internal/l2cap"
	"repro/internal/sim"
)

// UUIDNAP is the PAN Network Access Point service class UUID.
const UUIDNAP uint16 = 0x1116

// Record is one SDP service record.
type Record struct {
	Handle uint32 // service record handle
	Class  uint16 // service class UUID
	PSM    uint16 // protocol descriptor: L2CAP PSM to reach the service
	Name   string
}

// ServerConfig parameterises the daemon's fault behaviour.
type ServerConfig struct {
	// RefuseProb is the probability an incoming SDP connection is refused.
	RefuseProb float64
	// TimeoutProb is the probability the daemon hangs past the client's
	// response timer.
	TimeoutProb float64
	// MissProb is the probability a lookup misses a genuinely registered
	// record ("NAP not found" despite presence).
	MissProb float64
	// ResponseTime is the nominal handling latency.
	ResponseTime sim.Time
}

// DefaultServerConfig returns calibrated daemon parameters.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		RefuseProb:   1.6e-3,
		TimeoutProb:  1.3e-3,
		MissProb:     2e-4,
		ResponseTime: 30 * sim.Millisecond,
	}
}

// Validate reports configuration errors.
func (c ServerConfig) Validate() error {
	if c.RefuseProb < 0 || c.RefuseProb > 1 ||
		c.TimeoutProb < 0 || c.TimeoutProb > 1 ||
		c.MissProb < 0 || c.MissProb > 1 {
		return fmt.Errorf("sdp: probability out of range")
	}
	if c.ResponseTime <= 0 {
		return fmt.Errorf("sdp: non-positive response time")
	}
	return nil
}

// Server is the SDP daemon of one node (in the testbeds, the NAP's).
type Server struct {
	cfg  ServerConfig
	rng  *rand.Rand
	sink hci.Sink

	nextHandle uint32
	records    []Record // in registration order
	hits       []Record // the last search's matches, reused across searches
}

// NewServer builds an SDP daemon.
func NewServer(cfg ServerConfig, rng *rand.Rand, sink hci.Sink) *Server {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Server{
		cfg: cfg, rng: rng, sink: sink,
		nextHandle: 0x10000,
	}
}

// Register adds a record, assigning its handle.
func (s *Server) Register(r Record) uint32 {
	s.nextHandle++
	r.Handle = s.nextHandle
	s.records = append(s.records, r)
	return r.Handle
}

// Records reports the number of registered records.
//
// Test seam: stack's TestHostAssembly.
func (s *Server) Records() int { return len(s.records) }

// outcome is the daemon's response classification.
type outcome int

const (
	ok outcome = iota
	refused
	timedOut
	missed
)

// handleSearch runs the daemon side of one search, with fault injection.
// The matches come back in registration order, in a buffer the next search
// overwrites.
func (s *Server) handleSearch(class uint16) ([]Record, outcome) {
	switch u := s.rng.Float64(); {
	case u < s.cfg.RefuseProb:
		if s.sink != nil {
			s.sink(core.CodeSDPConnectionRefused, "sdp.handle_search")
		}
		return nil, refused
	case u < s.cfg.RefuseProb+s.cfg.TimeoutProb:
		if s.sink != nil {
			s.sink(core.CodeSDPTimeout, "sdp.handle_search")
		}
		return nil, timedOut
	}
	hits := s.hits[:0]
	for _, r := range s.records {
		if r.Class == class {
			hits = append(hits, r)
		}
	}
	s.hits = hits
	if len(hits) > 0 && s.rng.Float64() < s.cfg.MissProb {
		if s.sink != nil {
			s.sink(core.CodeSDPServiceMissing, "sdp.handle_search")
		}
		return nil, missed
	}
	return hits, ok
}

// LogStaleRecord records that a PAN setup validated against a stale cached
// copy of this daemon's registry: the daemon logs the mismatch on its own
// (NAP-side) system log. It is how nearly all "PAN connect failed" failures
// leave their SDP evidence in Table 2.
func (s *Server) LogStaleRecord() {
	if s.sink != nil {
		s.sink(core.CodeSDPServiceMissing, "sdp.stale_record")
	}
}

// Client runs SDP searches from a PANU.
type Client struct {
	node string
	mux  *l2cap.Mux
	sink hci.Sink
}

// NewClient builds an SDP client over the node's L2CAP layer.
func NewClient(node string, mux *l2cap.Mux, sink hci.Sink) *Client {
	if mux == nil {
		panic("sdp: nil L2CAP mux")
	}
	return &Client{node: node, mux: mux, sink: sink}
}

// Result reports a search.
type Result struct {
	Dur sim.Time
	Err error
}

// Search connects to the server's SDP daemon over hd and asks for records of
// the given service class. The records come back in registration order and
// stay valid until the server's next search.
//
// Error semantics, mapped to the paper's user failures by the workload:
//   - transport/L2CAP/HCI errors or daemon refusal/timeout → the search
//     procedure terminated abnormally ("SDP search failed");
//   - nil error with zero records while the service is registered →
//     "NAP not found".
func (c *Client) Search(hd hci.Handle, server *Server, class uint16) ([]Record, Result) {
	ch, cres := c.mux.Connect(hd, l2cap.PSMSDP)
	if cres.Err != nil {
		return nil, Result{Dur: cres.Dur, Err: cres.Err}
	}
	total := cres.Dur

	hits, out := server.handleSearch(class)
	total += server.cfg.ResponseTime
	switch out {
	case refused:
		// The client-side sdpd logs the refusal too (as BlueZ does).
		if c.sink != nil {
			c.sink(core.CodeSDPConnectionRefused, "sdp.search")
		}
		c.mux.Disconnect(&ch)
		return nil, Result{Dur: total,
			Err: core.NewSimError(core.CodeSDPConnectionRefused, "sdp.search", c.node)}
	case timedOut:
		// Client waits out its response timer before giving up.
		total += 5 * sim.Second
		if c.sink != nil {
			c.sink(core.CodeSDPTimeout, "sdp.search")
		}
		c.mux.Disconnect(&ch)
		return nil, Result{Dur: total,
			Err: core.NewSimError(core.CodeSDPTimeout, "sdp.search", c.node)}
	}

	dres := c.mux.Disconnect(&ch)
	total += dres.Dur
	return hits, Result{Dur: total}
}
