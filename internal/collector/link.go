package collector

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// link is the agent-side session engine both planes share: the dial/backoff
// loop, the Hello/Resume handshake with its regression abort, the reader
// that applies acknowledgements and the Fin release, the fault-injected
// frame write, the Done send, typed reject handling and the transport
// counters. A plane — the flat Agent shipping record batches go-back-N, or
// the ScatterAgent shipping fold partials stop-and-wait — embeds it and
// supplies its Hello, its cursors and its stall policy.
type link struct {
	addr    string
	retry   retryPolicy
	timeout time.Duration  // wait for the sink's answer to Hello; per-frame write deadline
	inj     *faultInjector // nil without fault injection; session goroutine only

	mu           sync.Mutex // guards the link's fields and the plane's send state
	err          error      // first fatal error
	lastProgress time.Time  // last acknowledgement progress (stall clock)
	sent         int        // data frames handed to the fault injector
	retransmits  int        // frames sent again after an earlier send
	rejects      int        // retryable rejects absorbed (backed off, not fatal)
	lastReject   *Reject

	work      chan struct{} // nudges the send loop
	closed    chan struct{} // closed on Close/Abort or the first fatal error
	fin       chan struct{} // closed when the sink releases the agent with Fin
	closeOnce sync.Once
	finOnce   sync.Once
}

// dialTimeout bounds one connection attempt of either agent plane.
const dialTimeout = 2 * time.Second

// retryPolicy is the reconnect configuration both agent planes share: the
// capped, jittered exponential backoff between connection attempts.
type retryPolicy struct {
	min, max time.Duration
	seed     int64
}

// init fills the link's shared defaults — 100 ms..5 s backoff with the cap
// never below the floor — builds the fault injector and makes its
// channels.
func (l *link) init(addr string, retry retryPolicy, timeout time.Duration, fault FaultConfig) {
	if retry.min <= 0 {
		retry.min = 100 * time.Millisecond
	}
	if retry.max <= 0 {
		retry.max = 5 * time.Second
	}
	if retry.max < retry.min {
		retry.max = retry.min
	}
	l.addr, l.retry, l.timeout = addr, retry, timeout
	l.inj = newFaultInjector(fault)
	l.work = make(chan struct{}, 1)
	l.closed = make(chan struct{})
	l.fin = make(chan struct{})
}

// backoff computes the delay before reconnection attempt n: capped
// exponential growth from the floor to the cap, jittered over the upper half
// of the window by the deterministic per-agent rng.
func (p retryPolicy) backoff(rng *rand.Rand, attempt int) time.Duration {
	d := p.min
	for i := 0; i < attempt && d < p.max; i++ {
		d *= 2
	}
	if d > p.max {
		d = p.max
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// redial is the connection loop: dial, run one session, reconnect — until
// the link is closed or released. Failed attempts back off exponentially
// with seeded jitter; a session that got as far as a Resume handshake
// (session reports true) resets the backoff and reconnects eagerly.
func (l *link) redial(session func(net.Conn) bool) {
	rng := rand.New(rand.NewSource(l.retry.seed))
	attempt := 0
	for {
		select {
		case <-l.closed:
			return
		case <-l.fin:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", l.addr, dialTimeout)
		if err == nil {
			resumed := session(conn)
			conn.Close()
			if resumed {
				attempt = 0
				continue
			}
		}
		delay := l.retry.backoff(rng, attempt)
		attempt++
		select {
		case <-l.closed:
			return
		case <-l.fin:
			return
		case <-time.After(delay):
		}
	}
}

// signal nudges the send loop without blocking.
func (l *link) signal() {
	select {
	case l.work <- struct{}{}:
	default:
	}
}

// fatalLocked records the first unrecoverable error and stops the agent.
// Caller holds mu.
func (l *link) fatalLocked(err error) {
	if l.err == nil {
		l.err = err
	}
	l.closeOnce.Do(func() { close(l.closed) })
}

// fatal records the first unrecoverable error and stops the agent.
func (l *link) fatal(err error) {
	l.mu.Lock()
	l.fatalLocked(err)
	l.mu.Unlock()
}

// Err reports the agent's fatal error, if any.
func (l *link) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats reports transport counters: data frames sent (before fault
// injection) and frames that were retransmissions of an earlier send.
func (l *link) Stats() (sent, retransmits int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sent, l.retransmits
}

// Rejects reports how many retryable rejects the agent has absorbed (each
// followed by backoff and retry) and the most recent one (nil if none) —
// the observable trail of quota shedding and drains.
func (l *link) Rejects() (count int, last *Reject) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rejects, l.lastReject
}

// countSendLocked accounts one data frame handed to the uplink: seq is its
// stream sequence, maxSent the stream's highest sequence sent so far.
// Caller holds mu.
func (l *link) countSendLocked(seq uint64, maxSent *uint64) {
	l.sent++
	if seq <= *maxSent {
		l.retransmits++
	} else {
		*maxSent = seq
	}
}

// reject handles a sink Reject. Typed rejects split two worlds: a service
// condition (keyspace not registered yet, quota quarantine, draining sink)
// is absorbed — counted, then backed off and retried, the condition is
// expected to clear — while a configuration error (campaign, scatternet or
// shard mismatch) stops the agent loudly instead of retrying forever.
func (l *link) reject(rej *Reject, what string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rej.Retryable() {
		l.rejects++
		l.lastReject = rej
		return
	}
	l.fatalLocked(fmt.Errorf("collector: sink %s: %s", what, rej.Error()))
}

// handshake opens a session: the Hello goes out, and the sink's Resume is
// returned. A Reject (handled by reject), a silent sink or any other answer
// yields nil.
func (l *link) handshake(conn net.Conn, hello *Hello) *Resume {
	if err := writeControl(conn, frameHello, hello); err != nil {
		return nil
	}
	conn.SetReadDeadline(time.Now().Add(l.timeout))
	fr, err := ReadFrame(conn)
	if err != nil {
		return nil
	}
	conn.SetReadDeadline(time.Time{})
	switch fr.Kind {
	case KindResume:
		return fr.Resume
	case KindReject:
		l.reject(fr.Reject, "refused session")
	}
	return nil
}

// resumeLocked returns node's cursor from the sink's Resume; stream labels
// it in errors. A missing cursor, or one behind what the sink already
// acknowledged, means the sink lost its durable state (restarted without
// its checkpoint): the agent's copies of the acknowledged work are gone,
// the campaign cannot be made whole, and the agent stops loudly rather than
// ship a silently truncated stream. Caller holds mu.
func (l *link) resumeLocked(res *Resume, stream, node string, acked uint64) (uint64, bool) {
	for _, c := range res.Cursors {
		if c.Node != node {
			continue
		}
		if c.Seq < acked {
			l.fatalLocked(fmt.Errorf("collector: sink resumed stream %s at seq %d below acknowledged %d "+
				"(checkpoint lost?)", stream, c.Seq, acked))
			return 0, false
		}
		return c.Seq, true
	}
	l.fatalLocked(fmt.Errorf("collector: sink resume is missing stream %s", stream))
	return 0, false
}

// read consumes the sink's frames on one session until it ends: each Ack
// goes to the plane's ack (which reports progress, resetting the stall
// clock; caller-side it runs under mu), Fin releases the agent, and a
// mid-session Reject — the sink started draining, or the keyspace tripped
// its quota — gets the same split as at the handshake.
func (l *link) read(conn net.Conn, ack func(*Ack) bool) {
	for {
		fr, err := ReadFrame(conn)
		if err != nil {
			return
		}
		switch fr.Kind {
		case KindAck:
			l.mu.Lock()
			if ack(fr.Ack) {
				l.lastProgress = time.Now()
			}
			l.mu.Unlock()
		case KindFin:
			l.finOnce.Do(func() { close(l.fin) })
			return
		case KindReject:
			l.reject(fr.Reject, "rejected session")
			return
		default:
			return // protocol violation; reconnect
		}
	}
}

// send hands one encoded data frame to the fault injector and writes what
// it lets through, after any delay it imposes. This is the one place either
// plane puts a data frame on the wire.
func (l *link) send(conn net.Conn, frame []byte) error {
	frames, delay := l.inj.apply(frame)
	if delay > 0 {
		time.Sleep(delay)
	}
	return l.write(conn, frames...)
}

// write puts frames on the wire in order, each under its own write deadline.
func (l *link) write(conn net.Conn, frames ...[]byte) error {
	for _, f := range frames {
		conn.SetWriteDeadline(time.Now().Add(l.timeout))
		if _, err := conn.Write(f); err != nil {
			return err
		}
	}
	return nil
}

// sendDone ships the Done frame. Control frames are never fault-injected,
// so a data frame the injector still holds back goes out first rather than
// trailing the Done.
func (l *link) sendDone(conn net.Conn, done *Done) error {
	frame, err := jsonFrame(frameDone, done)
	if err != nil {
		return err
	}
	if h := l.inj.flush(); h != nil {
		return l.write(conn, h, frame)
	}
	return l.write(conn, frame)
}
