package workload

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/hci"
	"repro/internal/logging"
	"repro/internal/pan"
	"repro/internal/recovery"
	"repro/internal/sdp"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// cyclePlan is the sampled parameter set of one BlueTest cycle (the random
// variables S, SDP, B, N, L_S, L_R of the paper's §3).
type cyclePlan struct {
	scan bool
	sdp  bool
	pkt  core.PacketType
	app  core.AppKind

	sendN, recvN       int
	sendSize, recvSize int
}

// Client is one BlueTest client instance, running on a PANU host.
type Client struct {
	cfg     Config
	world   *sim.World
	host    *stack.Host
	napHost *stack.Host
	testLog *logging.TestLog
	cascade *recovery.Cascade
	rng     *rand.Rand

	counters *Counters

	running bool

	// Connection state (persists across consecutive realistic cycles).
	// conn and pipe point at connVal and pipeVal while a connection is up
	// and are nil otherwise: the client reuses one Conn and one Pipe value
	// for every connection it makes.
	hd          hci.Handle
	conn        *pan.Conn
	pipe        *stack.Pipe
	connVal     pan.Conn
	pipeVal     stack.Pipe
	connectedAt sim.Time
	cyclesLeft  int
	cycleIdx    int
	idleBefore  sim.Time
	reusedIdle  bool
	freshSDP    bool
	plan        cyclePlan

	// maskSDP is the masking counterfactual's stream, looked up on the
	// first forced search.
	maskSDP *rand.Rand

	// lastPhaseFail[p] is the instant of this node's previous failure in
	// protocol phase p (-1 before the first) — the O(1) windowed-recurrence
	// state behind the collection-time transience verdict.
	lastPhaseFail [int(core.NumFailurePhases) + 1]sim.Time

	// Transfer progress, preserved across masked-loss retries.
	sendLeft, recvLeft int

	// Phase callbacks as pre-bound method values: the client schedules
	// hundreds of thousands of phase transitions per virtual day, and a
	// fresh method-value closure per schedule was one of the larger
	// allocation sources in the campaign profile.
	fnCycleStart, fnSearchPhase, fnSDPPhase, fnConnectPhase func()
	fnBindPhase, fnBindDo, fnTransferPhase, fnTransferLoop  func()
	fnDisconnectPhase                                       func()
}

// NewClient builds a BlueTest client for a PANU host targeting the NAP.
func NewClient(cfg Config, world *sim.World, host, napHost *stack.Host, testLog *logging.TestLog) *Client {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if host == nil || host.PANU == nil {
		panic("workload: client needs a PANU host")
	}
	if napHost == nil || napHost.NAP == nil {
		panic("workload: client needs the NAP host")
	}
	if testLog == nil {
		panic("workload: nil test log")
	}
	c := &Client{
		cfg:      cfg,
		world:    world,
		host:     host,
		napHost:  napHost,
		testLog:  testLog,
		cascade:  recovery.NewCascade(host, world.RNG("recovery."+host.Node)),
		rng:      world.RNG("workload." + host.Node),
		counters: NewCounters(),
	}
	for i := range c.lastPhaseFail {
		c.lastPhaseFail[i] = -1
	}
	c.fnCycleStart = c.cycleStart
	c.fnSearchPhase = c.searchPhase
	c.fnSDPPhase = c.sdpPhase
	c.fnConnectPhase = c.connectPhase
	c.fnBindPhase = c.bindPhase
	c.fnBindDo = c.bindDo
	c.fnTransferPhase = c.transferPhase
	c.fnTransferLoop = c.transferLoop
	c.fnDisconnectPhase = c.disconnectPhase
	return c
}

// Counters exposes the accumulated statistics.
func (c *Client) Counters() *Counters { return c.counters }

// Node reports the client's host name.
func (c *Client) Node() string { return c.host.Node }

// Start schedules the first cycle after a small per-node phase offset so the
// six PANUs do not start in lockstep.
func (c *Client) Start() {
	if c.running {
		panic("workload: client already started")
	}
	c.running = true
	offset := sim.Time(c.rng.Int64N(int64(10 * sim.Second)))
	c.world.ScheduleAfter(offset, c.fnCycleStart)
}

// at schedules the next phase after d.
func (c *Client) at(d sim.Time, fn func()) {
	if d < 0 {
		d = 0
	}
	c.world.ScheduleAfter(d, fn)
}

// samplePlan draws the cycle's random variables.
func (c *Client) samplePlan() cyclePlan {
	var p cyclePlan
	p.scan = stats.Bernoulli(c.rng, c.cfg.FlagProb)
	p.sdp = stats.Bernoulli(c.rng, c.cfg.FlagProb)
	switch c.cfg.Kind {
	case core.WLRandom:
		// B: binomial over the six ACL data packet types.
		idx := stats.Binomial{N: 5, P: 0.5}.SampleInt(c.rng)
		p.pkt = core.PacketTypes()[idx]
		n := c.cfg.RandomN.SampleInt(c.rng)
		p.sendN = n / 2
		p.recvN = n - p.sendN
		p.sendSize = c.cfg.RandomLen.SampleInt(c.rng)
		p.recvSize = c.cfg.RandomLen.SampleInt(c.rng)
	case core.WLRealistic:
		// The packet type choice is left to the BT stack, which picks the
		// highest-rate type for bulk data.
		p.pkt = core.PTDH5
		p.app = traffic.RandomApp(c.rng)
		plan := traffic.Sample(p.app, c.rng, c.cfg.VolumeScale)
		p.sendN, p.recvN = plan.Packets()
		p.sendSize, p.recvSize = plan.SendPDU, plan.RecvPDU
	case core.WLFixed:
		p.pkt = core.PTDH5
		p.sendN = c.cfg.FixedN / 2
		p.recvN = c.cfg.FixedN - p.sendN
		p.sendSize, p.recvSize = c.cfg.FixedLen, c.cfg.FixedLen
	default:
		panic(fmt.Sprintf("workload: unknown kind %v", c.cfg.Kind))
	}
	return p
}

// report builds and files a user failure report, runs the scenario's
// recovery (sampling the persistence depth), and returns the outcome.
func (c *Client) report(f core.UserFailure) recovery.Outcome {
	var out recovery.Outcome
	if f != core.UFDataMismatch {
		if depth, ok := recovery.SampleDepth(f, c.rng); ok {
			out = c.cascade.RunWithDepth(c.cfg.Scenario, depth)
		}
	}
	c.file(f, out)
	return out
}

// reportWithDepth files a report for a failure whose persistence depth was
// already sampled (by a masking decision that declined to mask it).
func (c *Client) reportWithDepth(f core.UserFailure, depth core.RecoveryAction) recovery.Outcome {
	out := c.cascade.RunWithDepth(c.cfg.Scenario, depth)
	c.file(f, out)
	return out
}

// file appends the report and updates failure bookkeeping.
func (c *Client) file(f core.UserFailure, out recovery.Outcome) {
	rep := core.UserReport{
		At:         c.world.Now(),
		Testbed:    c.cfg.Testbed,
		Node:       c.host.Node,
		Failure:    f,
		Workload:   c.cfg.Kind,
		App:        c.plan.app,
		Packet:     c.plan.pkt,
		CycleIdx:   c.cycleIdx,
		SDPFlag:    c.freshSDP,
		ScanFlag:   c.plan.scan,
		DistanceM:  c.host.DistanceM,
		IdleBefore: c.idleBefore,
	}
	if c.pipe != nil {
		rep.SentPkts = c.pipe.Sent()
	}
	if c.conn != nil {
		rep.ConnID = c.conn.ID
	}
	if f != core.UFDataMismatch {
		rep.Recovered = out.Recovered
		rep.Recovery = out.Action
		rep.TTR = out.TTR
	}
	rep.Phase, rep.Verdict = c.classify(f)
	c.testLog.Append(rep)
	c.counters.Failures[f]++
}

// RecurrenceWindow is the windowed-recurrence horizon of the transience
// verdict: a repeat failure of the same protocol phase on the same node
// within this window is judged a dynamic-availability episode (the node is
// oscillating in and out of service) rather than an isolated transient.
const RecurrenceWindow = 10 * sim.Minute

// classify assigns the taxonomy tags at collection time: the protocol phase
// from the failure type, and the transience verdict from the windowed
// recurrence rule. Masked occurrences update the recurrence state too —
// masking hides the failure from the user, but the phase did fail. Tagging
// here, where the record is born, is what makes the classification
// plane-independent: retained, streaming and distributed collection all see
// records that already carry identical tags.
func (c *Client) classify(f core.UserFailure) (core.FailurePhase, core.TransienceVerdict) {
	phase := f.Phase()
	verdict := core.VerdictTransient
	now := c.world.Now()
	if last := c.lastPhaseFail[phase]; last >= 0 && now-last <= RecurrenceWindow {
		verdict = core.VerdictDynamicAvailability
	}
	c.lastPhaseFail[phase] = now
	return phase, verdict
}

// transientClass reports whether the RetryTransient masking applies to f.
func transientClass(f core.UserFailure) bool {
	switch f {
	case core.UFConnectFailed, core.UFSDPSearchFailed,
		core.UFPANConnectFailed, core.UFPacketLoss:
		return true
	default:
		return false
	}
}

// failTransient handles a failure that the RetryTransient masking may
// suppress: when masked, the phase retries (via retry, after the masking
// wait); otherwise the failure is reported with its sampled depth and the
// cycle restarts.
func (c *Client) failTransient(f core.UserFailure, retry func()) {
	if c.cfg.Masking.RetryTransient && transientClass(f) {
		depth, maskedOK := recovery.TryMask(f, c.rng)
		if maskedOK {
			c.masked(f)
			c.at(recovery.MaskRetryWait, retry)
			return
		}
		if depth != core.RANone {
			c.failAndRestart(c.reportWithDepth(f, depth))
			return
		}
	}
	c.failAndRestart(c.report(f))
}

// masked records a masked event: the failure the strategy suppressed.
func (c *Client) masked(f core.UserFailure) {
	c.counters.Masked[f]++
	// Masked reports are filed for analysis but flagged so that failure
	// streams exclude them.
	rep := core.UserReport{
		At:        c.world.Now(),
		Testbed:   c.cfg.Testbed,
		Node:      c.host.Node,
		Failure:   f,
		Workload:  c.cfg.Kind,
		App:       c.plan.app,
		Packet:    c.plan.pkt,
		CycleIdx:  c.cycleIdx,
		SDPFlag:   c.freshSDP,
		ScanFlag:  c.plan.scan,
		DistanceM: c.host.DistanceM,
		Masked:    true,
		Recovered: true,
	}
	rep.Phase, rep.Verdict = c.classify(f)
	c.testLog.Append(rep)
}

// failAndRestart handles a reported failure: quiet teardown plus scheduling
// the next cycle after the recovery time and a fresh off period.
func (c *Client) failAndRestart(out recovery.Outcome) {
	c.teardown()
	off := c.offTime()
	c.at(out.TTR+off, c.fnCycleStart)
}

// teardown quietly drops connection state.
func (c *Client) teardown() {
	if c.conn != nil {
		c.host.PANU.Abort(c.conn, c.napHost.NAP)
	}
	c.conn = nil
	c.pipe = nil
	c.hd = hci.InvalidHandle
	c.cyclesLeft = 0
	c.cycleIdx = 0
}

// offTime samples the Pareto passive off time.
func (c *Client) offTime() sim.Time {
	return sim.Seconds(c.cfg.OffTime.Sample(c.rng))
}

// cycleStart begins a BlueTest cycle: on a live (reused) connection it goes
// straight to the transfer; otherwise it walks the full utilisation chain.
func (c *Client) cycleStart() {
	c.counters.Cycles++
	c.plan = c.samplePlan()

	if c.conn != nil && c.cyclesLeft > 0 {
		// Consecutive cycle over the same connection (realistic WL).
		c.cycleIdx++
		c.reusedIdle = true
		c.at(0, c.fnTransferPhase)
		return
	}
	c.reusedIdle = false
	c.cycleIdx = 1

	var dur sim.Time
	if c.plan.scan {
		res := c.host.HCI.Inquiry()
		dur += res.Dur
		if res.Err != nil {
			out := c.report(core.UFInquiryScanFailed)
			c.failAndRestart(out)
			return
		}
	}
	c.at(dur, c.fnSearchPhase)
}

// searchPhase establishes the baseband link; the SDP search itself runs in
// a follow-up event so that virtual time has actually advanced past the
// paging window (a real application waits for the connection-complete event
// before issuing L2CAP traffic).
func (c *Client) searchPhase() {
	hd, res := c.host.HCI.CreateConnection(c.napHost.Node)
	if res.Err != nil {
		// The baseband link itself failed: the user sees a connect failure.
		c.failTransient(core.UFConnectFailed, c.fnSearchPhase)
		return
	}
	c.hd = hd
	c.at(res.Dur, c.fnSDPPhase)
}

// sdpPhase runs the SDP search when the SDP flag (or the always-search
// masking strategy) calls for it.
func (c *Client) sdpPhase() {
	var dur sim.Time
	doSearch := c.plan.sdp
	maskForced := false
	if !doSearch && c.cfg.Masking.SDPBeforeConnect {
		// Masking: always search before connecting. Whether the skipped
		// search would have bitten is sampled against the stale-cache
		// failure probability on a dedicated stream, so the masked count
		// matches what the unmasked run would have seen.
		doSearch = true
		maskForced = true
	}
	c.freshSDP = false
	if doSearch {
		search := func() error {
			hits, sres := c.host.SDPClient.Search(c.hd, c.napHost.SDPServer, sdp.UUIDNAP)
			dur += sres.Dur
			if sres.Err != nil {
				return sres.Err
			}
			if len(hits) == 0 {
				return errNAPNotFound
			}
			return nil
		}
		err := search()
		if err != nil && errors.Is(err, errNAPNotFound) && c.cfg.Masking.RetryNAPNotFound {
			var waited sim.Time
			var on int
			err, waited, on = recovery.Retry(recovery.MaskRetries, recovery.MaskRetryWait, search)
			dur += waited
			if err == nil && on > 1 {
				c.masked(core.UFNAPNotFound)
			}
		}
		if err != nil {
			if errors.Is(err, errNAPNotFound) {
				c.failAndRestart(c.report(core.UFNAPNotFound))
			} else {
				c.failTransient(core.UFSDPSearchFailed, c.fnSDPPhase)
			}
			return
		}
		c.freshSDP = true
		if maskForced {
			// Would the cache have failed us? Count the counterfactual.
			p := c.host.Config().PAN.StaleCacheFailProb
			if c.maskSDP == nil {
				c.maskSDP = c.world.RNG("mask.sdp." + c.host.Node)
			}
			if stats.Bernoulli(c.maskSDP, p) {
				c.masked(core.UFPANConnectFailed)
			}
		}
	}
	c.at(dur, c.fnConnectPhase)
}

// errNAPNotFound distinguishes the empty search result internally.
var errNAPNotFound = errors.New("workload: NAP not found")

// connectPhase runs the PAN connection and the role switch.
func (c *Client) connectPhase() {
	res := c.host.PANU.Connect(c.hd, c.napHost.NAP, c.freshSDP, &c.connVal)
	if res.Err != nil {
		if res.Stage == pan.StageL2CAP {
			c.failTransient(core.UFConnectFailed, c.fnConnectPhase)
		} else {
			c.failTransient(core.UFPANConnectFailed, c.fnConnectPhase)
		}
		return
	}
	c.conn = &c.connVal
	c.connectedAt = c.world.Now() + res.Dur
	c.counters.Connections++
	c.host.Hotplug.OnCreated(c.conn.Iface)
	dur := res.Dur

	// Master/slave switch, with the masking retry when enabled.
	doSwitch := func() error {
		sres := c.host.PANU.SwitchRole(c.conn, c.napHost.NAP)
		dur += sres.Dur
		return sres.Err
	}
	err := doSwitch()
	if err != nil && c.cfg.Masking.RetrySwitchRole {
		wasRequestLeg := pan.RequestLegFailed(err)
		var waited sim.Time
		var on int
		err, waited, on = recovery.Retry(recovery.MaskRetries, recovery.MaskRetryWait, doSwitch)
		dur += waited
		if err == nil && on > 1 {
			if wasRequestLeg {
				c.masked(core.UFSwitchRoleRequestFailed)
			} else {
				c.masked(core.UFSwitchRoleCommandFailed)
			}
		}
	}
	if err != nil {
		var out recovery.Outcome
		if pan.RequestLegFailed(err) {
			out = c.report(core.UFSwitchRoleRequestFailed)
		} else {
			out = c.report(core.UFSwitchRoleCommandFailed)
		}
		c.failAndRestart(out)
		return
	}

	c.pipeVal = c.host.OpenPipe(c.conn)
	c.pipe = &c.pipeVal
	if c.cfg.Kind == core.WLRealistic {
		c.cyclesLeft = 1 + c.rng.IntN(c.cfg.MaxCycles)
	} else {
		c.cyclesLeft = 1
	}
	c.at(dur+c.cfg.BindDelay, c.fnBindPhase)
}

// bindPhase binds the IP socket, racing T_C and T_H unless masked.
func (c *Client) bindPhase() {
	if c.cfg.Masking.BindWait {
		// Peek: would the natural bind have failed right now?
		wouldFail := c.conn == nil || c.conn.Iface == nil ||
			c.world.Now() < c.connectedAt+c.host.Config().TCWindow ||
			!c.conn.Iface.Configured
		if wouldFail {
			c.masked(core.UFBindFailed)
			wait := c.host.WaitForBind(c.conn, c.connectedAt)
			c.at(wait, c.fnBindDo)
			return
		}
	}
	c.bindDo()
}

// bindDo performs the actual bind.
func (c *Client) bindDo() {
	if err := c.host.Bind(c.conn, c.connectedAt); err != nil {
		out := c.report(core.UFBindFailed)
		c.failAndRestart(out)
		return
	}
	c.at(sim.Millisecond, c.fnTransferPhase)
}

// transferPhase begins the cycle's data transfer.
func (c *Client) transferPhase() {
	c.sendLeft, c.recvLeft = c.plan.sendN, c.plan.recvN
	c.transferLoop()
}

// transferLoop moves the remaining packets through the pipe. It is
// re-entrant: a masked packet loss pauses here and resumes after the
// masking retry wait with the remaining counts intact.
func (c *Client) transferLoop() {
	if c.pipe == nil || c.conn == nil || !c.conn.Open {
		// The connection evaporated between cycles (e.g. a reset from a
		// prior failure): rebuild on the next cycle.
		c.teardown()
		c.at(c.offTime(), c.fnCycleStart)
		return
	}
	var dur sim.Time
	for c.sendLeft+c.recvLeft > 0 {
		// One run per direction: the sends, then the receives.
		size, left := c.plan.sendSize, &c.sendLeft
		if c.sendLeft == 0 {
			size, left = c.plan.recvSize, &c.recvLeft
		}
		sent, outcome, elapsed := c.pipe.SendRun(c.plan.pkt, size, *left)
		*left -= sent
		c.counters.PacketsByType[c.plan.pkt] += int64(sent)
		c.counters.BytesMoved += int64(sent) * int64(size)
		dur += elapsed
		switch outcome {
		case stack.PacketLost:
			c.counters.LossesByType[c.plan.pkt]++
			if c.cfg.Masking.RetryTransient {
				if depth, maskedOK := recovery.TryMask(core.UFPacketLoss, c.rng); maskedOK {
					// Application-level retransmission masks the loss: pause,
					// let the fade pass (pipe slots advance with the wait),
					// resume the remaining transfer.
					c.masked(core.UFPacketLoss)
					c.at(dur+recovery.MaskRetryWait, c.fnTransferLoop)
					return
				} else if depth != core.RANone {
					c.recordIdleOutcome(true)
					c.failAndRestart(c.reportWithDepth(core.UFPacketLoss, depth))
					return
				}
			}
			c.recordIdleOutcome(true)
			c.failAndRestart(c.report(core.UFPacketLoss))
			return
		case stack.PacketCorrupted:
			// Reported, not recoverable, transfer continues.
			c.report(core.UFDataMismatch)
		}
	}
	c.recordIdleOutcome(false)
	c.at(dur, c.fnDisconnectPhase)
}

// recordIdleOutcome feeds the idle-time analysis for reused connections.
func (c *Client) recordIdleOutcome(failed bool) {
	if !c.reusedIdle {
		return
	}
	secs := c.idleBefore.Seconds()
	if failed {
		c.counters.IdleBeforeFailed.Add(secs)
	} else {
		c.counters.IdleBeforeClean.Add(secs)
	}
}

// disconnectPhase closes the cycle: either keep the connection for the next
// consecutive cycle or disconnect and go passive.
func (c *Client) disconnectPhase() {
	c.cyclesLeft--
	off := c.offTime()
	c.idleBefore = off
	if c.cyclesLeft > 0 && c.conn != nil && c.conn.Open {
		// Stay connected; idle T_W, then the next consecutive cycle.
		c.at(off, c.fnCycleStart)
		return
	}
	if c.conn != nil {
		c.host.PANU.Disconnect(c.conn, c.napHost.NAP)
	}
	c.conn = nil
	c.pipe = nil
	c.hd = hci.InvalidHandle
	c.cycleIdx = 0
	c.at(off, c.fnCycleStart)
}
