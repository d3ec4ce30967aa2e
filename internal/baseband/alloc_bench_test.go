package baseband

import (
	"testing"

	"repro/internal/core"
)

// sduShapeArgs is one SendSDU call: packet type, fragment count, and the
// full and last fragment lengths.
type sduShapeArgs struct {
	pt                      core.PacketType
	count, fullLen, lastLen int
}

// planSDU segments an sduLen-byte SDU plus its 4-byte L2CAP header the way
// l2cap.PlanSDU does (baseband tests cannot import l2cap, which imports
// this package through hci).
func planSDU(pt core.PacketType, sduLen int) sduShapeArgs {
	budget := pt.Payload()
	total := sduLen + 4
	count := (total + budget - 1) / budget
	return sduShapeArgs{pt: pt, count: count, fullLen: budget, lastLen: total - (count-1)*budget}
}

// TestSendSDUSteadyStateAllocFree proves the whole per-SDU data plane —
// run-length BER queries, the survival memo and its power tables, batched
// draws — performs zero heap allocations in steady state, also while
// shapes rotate through five packet types and ten send/receive sizes,
// once the memo has met each (packet type, BER).
func TestSendSDUSteadyStateAllocFree(t *testing.T) {
	tx := NewTransmitter(DefaultARQConfig(), noisyLink(1e-5, testRNG(31, 31)), testRNG(32, 32))
	var cycle []sduShapeArgs
	for i, pt := range []core.PacketType{core.PTDH5, core.PTDM1, core.PTDH3, core.PTDM5, core.PTDH1} {
		// A workload cycle: a run of sends, then a run of receives.
		for rep := 0; rep < 3; rep++ {
			cycle = append(cycle, planSDU(pt, 1691-300*i))
		}
		for rep := 0; rep < 3; rep++ {
			cycle = append(cycle, planSDU(pt, 64+250*i))
		}
	}
	next := 0
	send := func() {
		s := cycle[next%len(cycle)]
		next++
		tx.SendSDU(s.pt, s.count, s.fullLen, s.lastLen)
	}
	// Warm the memo and grow every table to its longest window.
	for i := 0; i < 8*len(cycle); i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
		t.Errorf("SendSDU allocates %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkTransmitterSend measures one full-payload DH5 ARQ send on the
// calibrated channel.
func BenchmarkTransmitterSend(b *testing.B) {
	tx := NewTransmitter(DefaultARQConfig(), noisyLink(2e-6, testRNG(41, 41)), testRNG(42, 42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Send(core.PTDH5, 339)
	}
}

// BenchmarkTransmitterSendSDU measures a five-fragment SDU through the
// batched path.
func BenchmarkTransmitterSendSDU(b *testing.B) {
	tx := NewTransmitter(DefaultARQConfig(), noisyLink(2e-6, testRNG(43, 43)), testRNG(44, 44))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.SendSDU(core.PTDH5, 5, 339, 120)
	}
}

// BenchmarkTransmitterSendSDUMix replays the random workload's SDU shape mix
// on the calibrated channel: per cycle a Binomial(5, 1/2) packet type, send
// and receive sizes uniform on 64..1691 B, and 1..120 SDUs, the first half
// at the send size and the rest at the receive size.
func BenchmarkTransmitterSendSDUMix(b *testing.B) {
	mix := testRNG(47, 47)
	var seq []sduShapeArgs
	for len(seq) < 1<<14 {
		ptIdx := 0
		for trial := 0; trial < 5; trial++ {
			if mix.Float64() < 0.5 {
				ptIdx++
			}
		}
		pt := core.PacketTypes()[ptIdx]
		send, recv := planSDU(pt, 64+mix.IntN(1628)), planSDU(pt, 64+mix.IntN(1628))
		n := 1 + mix.IntN(120)
		for i := 0; i < n; i++ {
			s := send
			if i >= n/2 {
				s = recv
			}
			seq = append(seq, s)
		}
	}
	tx := NewTransmitter(DefaultARQConfig(), noisyLink(2e-6, testRNG(45, 45)), testRNG(46, 46))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := seq[i%len(seq)]
		tx.SendSDU(s.pt, s.count, s.fullLen, s.lastLen)
	}
}
