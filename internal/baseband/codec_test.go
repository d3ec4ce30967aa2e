package baseband

import "testing"

func TestCRC16KnownVectors(t *testing.T) {
	// CRC-16/XMODEM (same polynomial, zero init) classic check value.
	if got := CRC16(0, []byte("123456789")); got != 0x31C3 {
		t.Errorf("CRC16(123456789) = %#04x, want 0x31c3", got)
	}
	if got := CRC16(0, nil); got != 0 {
		t.Errorf("CRC16(empty) = %#04x, want 0", got)
	}
}

func TestCRC16DetectsSingleBitFlips(t *testing.T) {
	data := []byte("bluetooth pan failure data")
	orig := CRC16(0, data)
	for i := 0; i < len(data)*8; i++ {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[i/8] ^= 1 << uint(i%8)
		if CRC16(0, mut) == orig {
			t.Fatalf("single-bit flip at %d undetected", i)
		}
	}
}

func TestCRC16InitMatters(t *testing.T) {
	data := []byte("x")
	if CRC16(0, data) == CRC16(0xAB00, data) {
		t.Error("different init (UAP) should change the CRC")
	}
}

// TestPacketCorruptionDetectedByCRC flips an 8-bit burst at every byte of a
// full DH1 payload: the CRC-16 detects every burst up to 16 bits long.
func TestPacketCorruptionDetectedByCRC(t *testing.T) {
	payload := []byte("hello bluetooth world......")[:27]
	want := CRC16(0, payload)
	for i := range payload {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0xFF
		if CRC16(0, mut) == want {
			t.Errorf("8-bit burst at byte %d passed CRC", i)
		}
	}
}
