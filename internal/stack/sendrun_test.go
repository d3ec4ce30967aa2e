package stack

import (
	"math/rand/v2"
	"testing"

	"repro/internal/bnep"
	"repro/internal/core"
	"repro/internal/l2cap"
	"repro/internal/radio"
	"repro/internal/sim"
)

// perPacket is SendRun's reference: the same packets sent one at a time
// through the per-packet path, stopping after the first packet that is not
// delivered.
func perPacket(p *Pipe, pt core.PacketType, size, n int) (int, PacketOutcome, sim.Time) {
	size = max(1, min(size, bnep.MTU))
	if nowSlot := int64(p.host.World.Now() / sim.Slot); nowSlot > p.host.Tx.Slot() {
		p.host.Tx.AdvanceTo(nowSlot)
	}
	plan := l2cap.PlanSDU(size, pt)
	var elapsed sim.Time
	for i := 1; i <= n; i++ {
		o, d := p.sendOne(pt, plan)
		elapsed += d
		if o != PacketDelivered {
			return i, o, elapsed
		}
	}
	return n, PacketDelivered, elapsed
}

// runTwin is a pair of identically seeded and configured hosts, each with
// an open pipe: run sends through SendRun, ref through perPacket.
type runTwin struct {
	run, ref         *bed
	runPipe, refPipe *Pipe
}

func newRunTwin(t *testing.T, mutate func(panu *Config)) *runTwin {
	t.Helper()
	bed := func() *bed { return newBed(t, func(panu, nap *Config) { mutate(panu) }, defaultOS()) }
	w := &runTwin{run: bed(), ref: bed()}
	w.runPipe, w.refPipe = w.run.openPipe(t), w.ref.openPipe(t)
	return w
}

// openPipe connects the bed's PANU and opens a pipe on the connection.
func (b *bed) openPipe(t testing.TB) *Pipe {
	t.Helper()
	conn, connectedAt := b.connect(t)
	b.world.RunUntil(connectedAt + 5*sim.Second)
	p := b.panu.OpenPipe(conn)
	return &p
}

// send idles both worlds for gap, then sends n packets on each and fails
// on a differing result or a differing state afterwards.
func (w *runTwin) send(t *testing.T, gap sim.Time, pt core.PacketType, size, n int) {
	t.Helper()
	w.run.world.RunUntil(w.run.world.Now() + gap)
	w.ref.world.RunUntil(w.ref.world.Now() + gap)
	gotN, gotO, gotD := w.runPipe.SendRun(pt, size, n)
	wantN, wantO, wantD := perPacket(w.refPipe, pt, size, n)
	if gotN != wantN || gotO != wantO || gotD != wantD {
		t.Fatalf("%v %d B x%d at slot %d: SendRun (%d, %v, %v), per packet (%d, %v, %v)",
			pt, size, n, w.ref.panu.Tx.Slot(), gotN, gotO, gotD, wantN, wantO, wantD)
	}
	w.check(t)
}

// check compares the pipes, the slot clocks and the state of every
// data-plane stream.
func (w *runTwin) check(t *testing.T) {
	t.Helper()
	if a, b := w.runPipe.Sent(), w.refPipe.Sent(); a != b {
		t.Fatalf("pipe sent %d, reference %d", a, b)
	}
	if a, b := w.runPipe.LatentAt(), w.refPipe.LatentAt(); a != b {
		t.Fatalf("latent defect index %d, reference %d", a, b)
	}
	if a, b := w.run.panu.Tx.Slot(), w.ref.panu.Tx.Slot(); a != b {
		t.Fatalf("slot %d, reference %d", a, b)
	}
	for _, s := range []string{"l2cap.Verde", "arq.Verde", "radio.Verde"} {
		if a, b := *w.run.world.Source(s), *w.ref.world.Source(s); a != b {
			t.Fatalf("%s stream state %v, reference %v", s, a, b)
		}
	}
}

// runConfigs are the host configurations the SendRun comparisons run on:
// the calibrated channel, raised L2CAP data faults, latent defects on every
// connection, a channel whose states and interference bursts flip every
// few tens of milliseconds (runs cut at state boundaries mid-run, window
// failures and retransmissions), and SlowPath, which sends every packet
// through the per-packet path.
func runConfigs() map[string]func(*Config) {
	flappy := func(c *Config) {
		c.Radio = radio.DefaultConfig(3)
		c.Radio.MeanGoodDur = 40 * sim.Millisecond
		c.Radio.MeanBadDur = 8 * sim.Millisecond
		c.Radio.BERGood = 1e-5
		c.Radio.BERBad = 2e-3
		c.Radio.InterferencePerHour = 7200
		c.Radio.MeanInterferenceDur = 5 * sim.Millisecond
		c.Radio.BERInterference = 8e-3
		c.ARQ.CRCEscape = 0.05
	}
	return map[string]func(*Config){
		"calibrated": func(c *Config) { c.Radio = radio.DefaultConfig(5) },
		"faults": func(c *Config) {
			c.Radio = radio.DefaultConfig(7)
			c.L2CAP.DataFaultPerPacket = 0.01
		},
		"latent": func(c *Config) {
			c.Radio = radio.DefaultConfig(5)
			c.LatentDefectProb, c.LatentMeanPackets = 1, 40
		},
		"flappy": flappy,
		"flappy-faults": func(c *Config) {
			flappy(c)
			c.L2CAP.DataFaultPerPacket = 0.002
			c.LatentDefectProb, c.LatentMeanPackets = 1, 300
		},
		"slowpath": func(c *Config) {
			flappy(c)
			c.ARQ.SlowPath = true
			c.L2CAP.DataFaultPerPacket = 0.002
		},
	}
}

// TestSendRunMatchesPerPacket pins the transfer kernel to the per-packet
// path: on every configuration, runs of every packet type, short and
// MTU-sized packets, runs of 1 to 300 packets and idle gaps leave both
// hosts with the same results, slot clock and stream positions.
func TestSendRunMatchesPerPacket(t *testing.T) {
	for name, mutate := range runConfigs() {
		t.Run(name, func(t *testing.T) {
			w := newRunTwin(t, mutate)
			drive := rand.New(rand.NewPCG(3, 4))
			for i := 0; i < 400; i++ {
				pt := core.PacketTypes()[drive.IntN(len(core.PacketTypes()))]
				size := 1 + drive.IntN(bnep.MTU+100)
				gap := sim.Time(drive.IntN(3)) * sim.Time(drive.IntN(2000)) * sim.Millisecond
				w.send(t, gap, pt, size, 1+drive.IntN(300))
			}
			w.check(t)
			if name == "slowpath" && w.run.panu.CleanPackets() != 0 {
				t.Fatalf("SlowPath resolved %d packets in the kernel", w.run.panu.CleanPackets())
			}
			if name == "calibrated" && w.run.panu.CleanPackets() == 0 {
				t.Fatal("the kernel never engaged on the calibrated channel")
			}
		})
	}
}

// FuzzSendRun runs the SendRun/per-packet comparison over fuzzed send
// sequences: each four-byte group of prog picks a packet type, a size, a
// run length in 1..256 and an idle gap.
func FuzzSendRun(f *testing.F) {
	f.Add(uint8(0), []byte{5, 255, 40, 0, 0, 3, 8, 9, 2, 200, 255, 1})
	f.Add(uint8(3), []byte{0, 0, 255, 0, 4, 90, 16, 7, 1, 1, 1, 0})
	f.Add(uint8(5), []byte{3, 17, 100, 2, 5, 44, 250, 0})
	names := []string{"calibrated", "faults", "latent", "flappy", "flappy-faults", "slowpath"}
	f.Fuzz(func(t *testing.T, config uint8, prog []byte) {
		w := newRunTwin(t, runConfigs()[names[int(config)%len(names)]])
		for steps := 0; len(prog) >= 4 && steps < 64; steps++ {
			pt := core.PacketTypes()[int(prog[0])%len(core.PacketTypes())]
			size := int(prog[1]) * 7
			gap := sim.Time(prog[3]) * sim.Time(prog[3]) * sim.Millisecond
			w.send(t, gap, pt, size, 1+int(prog[2]))
			prog = prog[4:]
		}
		w.check(t)
	})
}

// cleanRunPipe returns a pipe on the calibrated channel with every
// spontaneous fault off, for the allocation test and the benchmark.
func cleanRunPipe(tb testing.TB) *Pipe {
	b := newBed(tb, func(panu, nap *Config) { panu.Radio = radio.DefaultConfig(5) }, defaultOS())
	return b.openPipe(tb)
}

// TestSendRunSteadyStateAllocFree proves a run through the kernel, its
// per-packet fallbacks included, allocates nothing once the survival memo
// has met the shapes.
func TestSendRunSteadyStateAllocFree(t *testing.T) {
	pipe := cleanRunPipe(t)
	sizes := []int{1691, 64, 700, 1200}
	next := 0
	send := func() {
		for _, pt := range core.PacketTypes() {
			pipe.SendRun(pt, sizes[next%len(sizes)], 60)
		}
		next++
	}
	for i := 0; i < 50; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Errorf("SendRun allocates %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkPipeSendRun measures SendRun on the calibrated channel with the
// random workload's run shape: a DH3 run of 60 packets of 1200 bytes. It
// reports ns/packet beside ns/op.
func BenchmarkPipeSendRun(b *testing.B) {
	pipe := cleanRunPipe(b)
	const n = 60
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.SendRun(core.PTDH3, 1200, n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/packet")
}
