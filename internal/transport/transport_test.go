package transport

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
)

func testRNG(a uint64) *rand.Rand { return rand.New(rand.NewPCG(a, a^0x9E3779B97F4A7C15)) }

func TestH4Latency(t *testing.T) {
	h := NewH4(H4Config{BaudRate: 115200})
	if h.Kind() != KindH4 {
		t.Error("wrong kind")
	}
	res := h.Deliver(115199 / 10)
	if res.Err != nil {
		t.Fatalf("H4 should not fail: %v", res.Err)
	}
	if res.Latency <= 0 || res.Latency > sim.Second {
		t.Errorf("latency %v out of plausible range", res.Latency)
	}
	// Bigger messages take longer.
	if h.Deliver(1000).Latency <= h.Deliver(10).Latency {
		t.Error("latency should grow with size")
	}
}

func TestNewH4PanicsOnBadBaud(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	NewH4(H4Config{})
}

func TestUSBStall(t *testing.T) {
	var now sim.Time
	cfg := DefaultUSBConfig()
	cfg.StallProb = 1 // always stall
	u := NewUSB(cfg, "Win", func() sim.Time { return now }, testRNG(1))
	res := u.Deliver(64)
	if res.Err == nil {
		t.Fatal("expected stall error")
	}
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeUSBAddressStall {
		t.Fatalf("wrong error: %v", res.Err)
	}
	// While stalled, further deliveries fail with the same stall.
	now += sim.Second
	if res := u.Deliver(64); !errors.As(res.Err, &se) || se.Code != core.CodeUSBAddressStall {
		t.Errorf("delivery during stall: want an address stall, got %v", res.Err)
	}
}

func TestUSBCleanDelivery(t *testing.T) {
	cfg := DefaultUSBConfig()
	cfg.StallProb = 0
	var now sim.Time
	u := NewUSB(cfg, "Win", func() sim.Time { return now }, testRNG(2))
	res := u.Deliver(2048)
	if res.Err != nil {
		t.Fatalf("unexpected error: %v", res.Err)
	}
	if res.Latency != 2*cfg.LatencyPerKB {
		t.Errorf("latency = %v, want %v", res.Latency, 2*cfg.LatencyPerKB)
	}
	if u.Kind() != KindUSB {
		t.Error("wrong kind")
	}
}

func TestBCSPFrameRoundTrip(t *testing.T) {
	prop := func(reliable, hasCRC bool, seq, ack, channel uint8, payload []byte) bool {
		f := Frame{
			Reliable: reliable, HasCRC: hasCRC,
			Seq: seq & 7, Ack: ack & 7, Channel: channel & 0xF,
			Payload: payload,
		}
		if len(f.Payload) > maxBCSPPayload {
			f.Payload = f.Payload[:maxBCSPPayload]
		}
		wire, err := EncodeFrame(f)
		if err != nil {
			return false
		}
		got, err := DecodeFrame(wire)
		if err != nil {
			return false
		}
		if got.Payload == nil {
			got.Payload = []byte{}
		}
		want := f.Payload
		if want == nil {
			want = []byte{}
		}
		return got.Reliable == f.Reliable && got.HasCRC == f.HasCRC &&
			got.Seq == f.Seq && got.Ack == f.Ack && got.Channel == f.Channel &&
			bytes.Equal(got.Payload, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBCSPFrameEscaping(t *testing.T) {
	f := Frame{Reliable: true, HasCRC: true, Seq: 1, Channel: ChanHCICmd,
		Payload: []byte{slipEnd, slipEsc, slipEnd, 0x00, 0xFF}}
	wire, err := EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	// No raw 0xC0 may appear between the delimiters.
	for _, b := range wire[1 : len(wire)-1] {
		if b == slipEnd {
			t.Fatal("unescaped SLIP END inside frame")
		}
	}
	got, err := DecodeFrame(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("payload = %x, want %x", got.Payload, f.Payload)
	}
}

func TestBCSPFrameValidation(t *testing.T) {
	if _, err := EncodeFrame(Frame{Seq: 8}); err == nil {
		t.Error("seq 8 should fail")
	}
	if _, err := EncodeFrame(Frame{Channel: 16}); err == nil {
		t.Error("channel 16 should fail")
	}
	if _, err := EncodeFrame(Frame{Payload: make([]byte, maxBCSPPayload+1)}); err == nil {
		t.Error("oversized payload should fail")
	}
}

func TestBCSPDecodeRejectsCorruption(t *testing.T) {
	wire, err := EncodeFrame(Frame{Reliable: true, HasCRC: true, Seq: 2,
		Channel: ChanHCICmd, Payload: []byte("abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(wire[1:]); !errors.Is(err, ErrBadFraming) {
		t.Errorf("missing delimiter: %v", err)
	}
	mut := append([]byte(nil), wire...)
	mut[1] ^= 0x01 // corrupt header
	if _, err := DecodeFrame(mut); err == nil {
		t.Error("corrupt header accepted")
	}
	mut = append([]byte(nil), wire...)
	mut[len(mut)-3] ^= 0x40 // corrupt CRC area / payload
	if _, err := DecodeFrame(mut); err == nil {
		t.Error("corrupt payload accepted")
	}
}

func TestReceiverSequencing(t *testing.T) {
	mk := func(seq uint8, reliable bool) []byte {
		wire, err := EncodeFrame(Frame{Reliable: reliable, HasCRC: true,
			Seq: seq, Channel: ChanHCICmd, Payload: []byte{seq}})
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	var rx Receiver
	if ev := rx.Accept(mk(0, true)); ev != EvDelivered {
		t.Fatalf("in-order frame: %v", ev)
	}
	if ev := rx.Accept(mk(1, true)); ev != EvDelivered {
		t.Fatalf("in-order frame: %v", ev)
	}
	// Re-send of an acked frame: duplicate.
	if ev := rx.Accept(mk(1, true)); ev != EvDuplicate {
		t.Fatalf("retransmission: %v", ev)
	}
	// Skipping ahead: out of order.
	if ev := rx.Accept(mk(6, true)); ev != EvOutOfOrder {
		t.Fatalf("skip ahead: %v", ev)
	}
	// Unreliable frames bypass sequencing.
	if ev := rx.Accept(mk(7, false)); ev != EvDelivered {
		t.Fatalf("unreliable frame: %v", ev)
	}
	// Corrupt wire.
	if ev := rx.Accept([]byte{0x01, 0x02}); ev != EvCorrupt {
		t.Fatalf("garbage: %v", ev)
	}
	if rx.Expected() != 2 {
		t.Errorf("expected seq = %d, want 2", rx.Expected())
	}
}

func TestBCSPSimCleanPath(t *testing.T) {
	cfg := DefaultBCSPConfig()
	cfg.ReorderProb, cfg.MissingProb = 0, 0
	b := NewBCSPSim(cfg, "Ipaq", testRNG(3))
	for i := 0; i < 1000; i++ {
		res := b.Deliver(32)
		if res.Err != nil {
			t.Fatalf("clean BCSP failed: %v", res.Err)
		}
		if res.Latency >= cfg.RetransmitDelay {
			t.Fatalf("clean delivery %d paid a retransmission: latency %v", i, res.Latency)
		}
	}
	if b.Kind() != KindBCSP {
		t.Error("wrong kind")
	}
}

func TestBCSPSimReorderFault(t *testing.T) {
	cfg := DefaultBCSPConfig()
	cfg.ReorderProb = 1
	cfg.RecoverProb = 0
	b := NewBCSPSim(cfg, "Zaurus", testRNG(4))
	res := b.Deliver(16)
	if res.Err == nil {
		t.Fatal("expected out-of-order error")
	}
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeBCSPOutOfOrder {
		t.Fatalf("wrong error: %v", res.Err)
	}
	if res.Latency < cfg.RetransmitDelay {
		t.Error("fault should add retransmission latency")
	}
}

func TestBCSPSimReorderRecovery(t *testing.T) {
	cfg := DefaultBCSPConfig()
	cfg.ReorderProb = 1
	cfg.RecoverProb = 1
	b := NewBCSPSim(cfg, "Zaurus", testRNG(5))
	for i := 0; i < 16; i++ {
		res := b.Deliver(16)
		if res.Err != nil {
			t.Fatalf("recoverable reorder surfaced an error: %v", res.Err)
		}
		if res.Latency < cfg.RetransmitDelay {
			t.Errorf("recovered reorder %d should add retransmission latency: %v", i, res.Latency)
		}
	}
}

func TestBCSPSimMissingFault(t *testing.T) {
	cfg := DefaultBCSPConfig()
	cfg.ReorderProb = 0
	cfg.MissingProb = 1
	cfg.RecoverProb = 0
	b := NewBCSPSim(cfg, "Ipaq", testRNG(6))
	res := b.Deliver(16)
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeBCSPMissing {
		t.Fatalf("wrong error: %v", res.Err)
	}
}

func TestBCSPSimFaultRatesApproximateConfig(t *testing.T) {
	cfg := DefaultBCSPConfig()
	cfg.ReorderProb = 0.01
	cfg.MissingProb = 0.005
	cfg.RecoverProb = 0
	b := NewBCSPSim(cfg, "Ipaq", testRNG(7))
	fails := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if res := b.Deliver(16); res.Err != nil {
			fails++
		}
	}
	got := float64(fails) / n
	want := cfg.ReorderProb + cfg.MissingProb
	if got < want*0.8 || got > want*1.2 {
		t.Errorf("fault rate = %v, want ~%v", got, want)
	}
}
