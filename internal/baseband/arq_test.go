package baseband

import (
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/sim"
)

func testRNG(a, b uint64) *rand.Rand { return rand.New(rand.NewPCG(a, b)) }

func cleanLink(rng *rand.Rand) *radio.Link {
	cfg := radio.DefaultConfig(0)
	cfg.BERGood, cfg.BERBad = 0, 0
	cfg.InterferencePerHour = 0
	return radio.NewLink(cfg, rng)
}

func noisyLink(ber float64, rng *rand.Rand) *radio.Link {
	cfg := radio.DefaultConfig(0)
	cfg.BERGood, cfg.BERBad = ber, ber
	cfg.InterferencePerHour = 0
	return radio.NewLink(cfg, rng)
}

func TestAirBits(t *testing.T) {
	// DH1: (27+2)*8 = 232 bits uncoded.
	if got := AirBits(core.PTDH1, 27); got != 232 {
		t.Errorf("AirBits(DH1) = %d, want 232", got)
	}
	// DM1: (17+2)*8=152 bits -> 16 codewords -> 240 bits.
	if got := AirBits(core.PTDM1, 17); got != 240 {
		t.Errorf("AirBits(DM1) = %d, want 240", got)
	}
}

func TestARQConfigValidate(t *testing.T) {
	if err := DefaultARQConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultARQConfig()
	bad.FlushLimit = 0
	if bad.Validate() == nil {
		t.Error("flush limit 0 should be invalid")
	}
	bad = DefaultARQConfig()
	bad.CRCEscape = 2
	if bad.Validate() == nil {
		t.Error("CRC escape 2 should be invalid")
	}
}

func TestSendCleanChannelDeliversFirstTry(t *testing.T) {
	tx := NewTransmitter(DefaultARQConfig(), cleanLink(testRNG(1, 1)), testRNG(2, 2))
	for _, pt := range core.PacketTypes() {
		res := tx.Send(pt, pt.Payload())
		if res.Outcome != Delivered || res.Attempts != 1 {
			t.Errorf("%v: outcome=%v attempts=%d on clean channel", pt, res.Outcome, res.Attempts)
		}
		wantSlots := int64(pt.Slots() + 1)
		if res.Slots != wantSlots {
			t.Errorf("%v: slots=%d, want %d", pt, res.Slots, wantSlots)
		}
		if res.Elapsed != sim.Time(wantSlots)*sim.Slot {
			t.Errorf("%v: elapsed=%v", pt, res.Elapsed)
		}
	}
}

func TestSendHostileChannelDrops(t *testing.T) {
	cfg := DefaultARQConfig()
	cfg.CRCEscape = 0
	tx := NewTransmitter(cfg, noisyLink(0.5, testRNG(3, 3)), testRNG(4, 4))
	res := tx.Send(core.PTDH5, 339)
	if res.Outcome != Dropped {
		t.Fatalf("outcome = %v on a 50%% BER channel, want dropped", res.Outcome)
	}
	if res.Attempts != cfg.FlushLimit {
		t.Errorf("attempts = %d, want flush limit %d", res.Attempts, cfg.FlushLimit)
	}
}

func TestSendCRCEscapeProducesCorrupted(t *testing.T) {
	cfg := DefaultARQConfig()
	cfg.CRCEscape = 1 // every corrupted attempt escapes
	tx := NewTransmitter(cfg, noisyLink(0.5, testRNG(5, 5)), testRNG(6, 6))
	res := tx.Send(core.PTDM1, 17)
	if res.Outcome != Corrupted {
		t.Fatalf("outcome = %v, want corrupted with escape=1", res.Outcome)
	}
}

func TestSendRetransmissionsConsumeSlots(t *testing.T) {
	cfg := DefaultARQConfig()
	cfg.CRCEscape = 0
	// 0.1% BER over a 1480-bit DH3 packet: individual attempts fail with
	// p~0.77, so delivery usually needs a few tries.
	tx := NewTransmitter(cfg, noisyLink(0.001, testRNG(7, 7)), testRNG(8, 8))
	var retried *TxResult
	for i := 0; i < 5000; i++ {
		res := tx.Send(core.PTDH3, 183)
		if res.Attempts > 1 && res.Outcome == Delivered {
			retried = &res
			break
		}
	}
	if retried == nil {
		t.Fatal("no retransmissions observed at 0.1% BER")
	}
	if retried.Slots != int64(retried.Attempts)*4 {
		t.Errorf("slots = %d for %d attempts of a 3-slot packet (+1 return each)",
			retried.Slots, retried.Attempts)
	}
}

func TestPerByteLossOrderingMatchesFigure3a(t *testing.T) {
	// The paper's Figure 3a finding: per byte of offered data, packet loss
	// decreases with slot count, and DMx lose more than DHx. Use a channel
	// with frequent short fades so the flush limit actually bites.
	cfg := radio.DefaultConfig(0)
	cfg.MeanGoodDur = 800 * sim.Millisecond
	cfg.MeanBadDur = 80 * sim.Millisecond
	cfg.BERBad = 0.05
	cfg.InterferencePerHour = 0

	arq := DefaultARQConfig()
	arq.CRCEscape = 0

	lossPerByte := map[core.PacketType]float64{}
	const volume = 4 << 20 // bytes per type
	for _, pt := range core.PacketTypes() {
		link := radio.NewLink(cfg, testRNG(11, uint64(pt)))
		tx := NewTransmitter(arq, link, testRNG(12, uint64(pt)))
		drops, sent := 0, 0
		for sent < volume {
			res := tx.Send(pt, pt.Payload())
			sent += pt.Payload()
			if res.Outcome == Dropped {
				drops++
			}
		}
		lossPerByte[pt] = float64(drops) / float64(sent)
	}

	if !(lossPerByte[core.PTDM1] > lossPerByte[core.PTDM3] &&
		lossPerByte[core.PTDM3] > lossPerByte[core.PTDM5]) {
		t.Errorf("multi-slot DM ordering violated: %v", lossPerByte)
	}
	if !(lossPerByte[core.PTDH1] > lossPerByte[core.PTDH3] &&
		lossPerByte[core.PTDH3] > lossPerByte[core.PTDH5]) {
		t.Errorf("multi-slot DH ordering violated: %v", lossPerByte)
	}
	for _, pair := range [][2]core.PacketType{
		{core.PTDM1, core.PTDH1}, {core.PTDM3, core.PTDH3}, {core.PTDM5, core.PTDH5},
	} {
		if lossPerByte[pair[0]] <= lossPerByte[pair[1]] {
			t.Errorf("%v should lose more per byte than %v: %v",
				pair[0], pair[1], lossPerByte)
		}
	}
}

func TestAdvanceTo(t *testing.T) {
	tx := NewTransmitter(DefaultARQConfig(), cleanLink(testRNG(9, 9)), testRNG(10, 10))
	tx.Send(core.PTDH1, 10)
	cur := tx.Slot()
	tx.AdvanceTo(cur + 100)
	if tx.Slot() != cur+100 {
		t.Errorf("Slot() = %d, want %d", tx.Slot(), cur+100)
	}
	defer func() {
		if recover() == nil {
			t.Error("backwards AdvanceTo should panic")
		}
	}()
	tx.AdvanceTo(cur)
}

func TestSendPanicsOnBadPayload(t *testing.T) {
	tx := NewTransmitter(DefaultARQConfig(), cleanLink(testRNG(13, 13)), testRNG(14, 14))
	defer func() {
		if recover() == nil {
			t.Error("oversized payload should panic")
		}
	}()
	tx.Send(core.PTDM1, 100)
}
