package collector

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"
)

// link is the agent-side session engine both planes share: the dial/backoff
// loop and one session loop — the Hello/Resume handshake with its
// regression abort, the reader that applies acknowledgements and the Fin
// release, the buffered send pass with its fault-injected frame writes and
// the Done, one stall policy, typed reject handling and the transport
// counters. A plane — the flat Agent shipping record batches, or the
// ScatterAgent shipping fold partials — embeds it, sets its Hello and its
// streams' send states, and implements plane.
type link struct {
	addr  string
	retry retryPolicy
	hello *Hello         // opens every session
	sends []*sendState   // the plane's streams, moved under mu
	stall time.Duration  // no ack progress and no Fin for this long is a stall
	inj   *faultInjector // nil without fault injection; session goroutine only

	mu           sync.Mutex // guards the link's fields and the plane's send state
	err          error      // first fatal error
	connected    bool       // a session holds a live Resume handshake
	lastProgress time.Time  // stall clock: last ack progress, stall, or send after an idle spell
	stalls       int        // stalls in a row since the last ack progress
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

// sendState is one stream's position in the session protocol. The plane
// owns it; the session loop moves it under mu.
type sendState struct {
	node     string
	acked    uint64 // cumulatively acknowledged by the sink
	sentUpTo uint64 // send cursor on the current connection
	maxSent  uint64 // highest sequence ever sent (retransmit accounting)
}

// plane is what a payload plane supplies to the session loop besides its
// Hello and its send states.
type plane interface {
	// pruneLocked moves st.acked forward to acked and drops the buffered
	// work it covers. Caller holds mu.
	pruneLocked(st *sendState, acked uint64)
	// due takes mu itself, returns the data frames to send now (counted as
	// sent) and the Done once it may follow them; slow work runs outside mu.
	due() ([]bufEntry, *Done)
	spawn(f func()) // run f on a goroutine of its own
}

// The agents' session timing: dialTimeout bounds one connection attempt,
// sessionTimeout the wait for the sink's answer to a Hello and each write
// to the connection (a slower sink drops the connection and the agent
// resumes), and maxStalls stalls in a row mark a session wedged: the agent
// reconnects.
const (
	dialTimeout    = 2 * time.Second
	sessionTimeout = 5 * time.Second
	maxStalls      = 8
)

// retryPolicy is the reconnect configuration both agent planes share: the
// capped, jittered exponential backoff between connection attempts.
type retryPolicy struct {
	min, max time.Duration
	seed     int64
}

// init fills the link's shared defaults — 100 ms..5 s backoff with the cap
// never below the floor — builds the fault injector and makes its
// channels.
func (l *link) init(addr string, retry retryPolicy, stall time.Duration, fault FaultConfig) {
	if retry.min <= 0 {
		retry.min = 100 * time.Millisecond
	}
	if retry.max <= 0 {
		retry.max = 5 * time.Second
	}
	if retry.max < retry.min {
		retry.max = retry.min
	}
	l.addr, l.retry, l.stall = addr, retry, stall
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

// redial is the connection loop: dial, run one session of p, reconnect —
// until the link is closed or released. Failed attempts back off
// exponentially with seeded jitter; a session that got as far as a Resume
// handshake resets the backoff and reconnects eagerly.
func (l *link) redial(p plane) {
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
			resumed := l.session(p, conn)
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

// countSendLocked advances st's send cursor over one data frame handed to
// the uplink. Caller holds mu.
func (l *link) countSendLocked(st *sendState) {
	st.sentUpTo++
	l.sent++
	if st.sentUpTo <= st.maxSent {
		l.retransmits++
	} else {
		st.maxSent = st.sentUpTo
	}
}

// ackLocked applies a cumulative acknowledgement of st's stream up to seq
// and reports whether it moved the stream's cursor. Caller holds mu.
func (l *link) ackLocked(p plane, st *sendState, seq uint64) bool {
	if seq <= st.acked {
		return false
	}
	p.pruneLocked(st, seq)
	st.sentUpTo = max(st.sentUpTo, st.acked)
	return true
}

// unackedLocked reports whether some stream has frames on the wire that the
// sink has not acknowledged. Caller holds mu.
func (l *link) unackedLocked() bool {
	return slices.ContainsFunc(l.sends, func(st *sendState) bool { return st.sentUpTo > st.acked })
}

// rewindLocked moves every send cursor back to the acknowledged one, so the
// next pass resends everything unacknowledged. Caller holds mu.
func (l *link) rewindLocked() {
	for _, st := range l.sends {
		st.sentUpTo = st.acked
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

// resumeLocked applies the sink's Resume as an acknowledgement of every
// stream, then rewinds. A missing cursor, or one behind what the sink
// already acknowledged, means the sink lost its durable state (restarted
// without its checkpoint): the agent's copies of the acknowledged work are
// gone, the campaign cannot be made whole, and the agent stops loudly
// rather than ship a silently truncated stream. Caller holds mu.
func (l *link) resumeLocked(p plane, res *Resume) bool {
	for _, st := range l.sends {
		stream := l.hello.Testbed
		if st.node != stream {
			stream += "/" + st.node
		}
		i := slices.IndexFunc(res.Cursors, func(c StreamCursor) bool { return c.Node == st.node })
		switch {
		case i < 0:
			l.fatalLocked(fmt.Errorf("collector: sink resume is missing stream %s", stream))
			return false
		case res.Cursors[i].Seq < st.acked:
			l.fatalLocked(fmt.Errorf("collector: sink resumed stream %s at seq %d below acknowledged %d "+
				"(checkpoint lost?)", stream, res.Cursors[i].Seq, st.acked))
			return false
		}
		l.ackLocked(p, st, res.Cursors[i].Seq)
	}
	l.rewindLocked()
	return true
}

// read consumes the sink's frames on one session until it ends: each Ack
// goes to the plane, and one that moves a cursor is progress — it resets
// the stall clock and wakes the send pass. Fin releases the agent, and a
// mid-session Reject — the sink started draining, or the keyspace tripped
// its quota — gets the same split as at the handshake.
func (l *link) read(r io.Reader, p plane) {
	for {
		fr, err := ReadFrame(r)
		if err != nil {
			return
		}
		switch fr.Kind {
		case KindAck:
			l.mu.Lock()
			i := slices.IndexFunc(l.sends, func(st *sendState) bool { return st.node == fr.Ack.Node })
			if i >= 0 && l.ackLocked(p, l.sends[i], fr.Ack.Seq) {
				l.lastProgress, l.stalls = time.Now(), 0
				l.signal()
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

// session drives one connection of plane p: the Hello, answered by a
// Resume (a Reject goes to reject), then send passes — the plane's due
// frames, then its Done once — until the connection breaks, the sink
// releases the agent or the agent stops. It reports whether the sink
// answered with Resume (backoff reset).
//
// The session reads the sink's frames through one bufio.Reader and writes
// each send pass into one bufio.Writer, flushed once at the end of the
// pass, so a pass of many frames is one write(2).
//
// A stall is no ack progress and no Fin for the stall timeout while sent
// frames or the Done are unanswered. The clock starts over when a pass
// sends after nothing was outstanding, so work the plane does before a
// send never counts. A stall rewinds the plane, so the next pass resends
// everything unacknowledged and the Done; maxStalls in a row reconnect.
func (l *link) session(p plane, conn net.Conn) bool {
	w := bufio.NewWriterSize(deadlineWriter{conn, sessionTimeout}, dataBufSize)
	r := bufio.NewReaderSize(conn, controlBufSize)
	if writeControl(w, frameHello, l.hello) != nil || w.Flush() != nil {
		return false
	}
	conn.SetReadDeadline(time.Now().Add(sessionTimeout))
	fr, err := ReadFrame(r)
	if err != nil || fr.Kind != KindResume {
		if err == nil && fr.Kind == KindReject {
			l.reject(fr.Reject, "refused session")
		}
		return false
	}
	conn.SetReadDeadline(time.Time{})
	l.mu.Lock()
	ok := l.resumeLocked(p, fr.Resume)
	l.connected, l.lastProgress, l.stalls = ok, time.Now(), 0
	l.mu.Unlock()
	if !ok {
		return false
	}
	readerDone := make(chan struct{})
	p.spawn(func() {
		defer close(readerDone)
		l.read(r, p)
	})
	defer func() {
		conn.Close()
		<-readerDone
		l.mu.Lock()
		l.connected = false
		l.mu.Unlock()
	}()

	tick := time.NewTicker(l.stall / 2)
	defer tick.Stop()
	doneSent := false
	for {
		l.mu.Lock()
		idle := !doneSent && !l.unackedLocked()
		l.mu.Unlock()
		frames, done := p.due()
		if doneSent {
			done = nil
		}
		for _, e := range frames {
			raw := e.raw
			if raw == nil {
				var err error
				if raw, err = encodeBatchFrame(e.b); err != nil {
					l.fatal(err)
					return true
				}
			}
			if l.send(w, raw) != nil {
				return true
			}
		}
		if l.endPass(w, done) != nil {
			return true
		}
		if done != nil {
			doneSent = true
		}
		if idle && (len(frames) > 0 || done != nil) {
			l.mu.Lock()
			l.lastProgress = time.Now()
			l.mu.Unlock()
		}
		select {
		case <-l.work:
		case <-tick.C:
			l.mu.Lock()
			stalled := (doneSent || l.unackedLocked()) && time.Since(l.lastProgress) >= l.stall
			if stalled {
				l.rewindLocked()
				l.lastProgress, l.stalls, doneSent = time.Now(), l.stalls+1, false
			}
			wedged := l.stalls >= maxStalls
			l.mu.Unlock()
			if wedged {
				return true
			}
		case <-readerDone:
			return true
		case <-l.fin:
			return true
		case <-l.closed:
			return true
		}
	}
}

// send hands one encoded data frame to the fault injector and buffers what
// it lets through. A delay the injector imposes first flushes what the pass
// has buffered, so the frames ahead of the delay are not held back by it.
// This is the one place either plane puts a data frame on the wire.
func (l *link) send(w *bufio.Writer, frame []byte) error {
	if l.inj == nil {
		return l.write(w, frame)
	}
	frames, delay := l.inj.apply(frame)
	if delay > 0 {
		if err := w.Flush(); err != nil {
			return err
		}
		time.Sleep(delay)
	}
	return l.write(w, frames...)
}

// write buffers frames in order. The pass's writer puts them on the wire
// when it flushes, under a fresh write deadline per underlying write.
func (l *link) write(w io.Writer, frames ...[]byte) error {
	for _, f := range frames {
		if _, err := w.Write(f); err != nil {
			return err
		}
	}
	return nil
}

// endPass finishes a send pass: the data frame the fault injector still
// holds back, then done when the pass carries the Done, then one flush of
// everything buffered. Control frames are never fault-injected, so the held
// frame goes out first rather than trailing the Done or waiting for the
// next pass.
func (l *link) endPass(w *bufio.Writer, done *Done) error {
	if h := l.inj.flush(); h != nil {
		if err := l.write(w, h); err != nil {
			return err
		}
	}
	if done != nil {
		if err := writeControl(w, frameDone, done); err != nil {
			return err
		}
	}
	return w.Flush()
}
