// Package baseband implements the Bluetooth 1.1 baseband data plane used by
// the reproduction: the on-air size of the six ACL data packet types
// (DM1/DH1/DM3/DH3/DM5/DH5, with the 2/3-rate FEC expansion of DMx
// payloads), the CRC-16 payload check, and the ARQ transmitter whose
// retransmission flush limit is the paper's source of "Packet loss"
// failures.
//
// The transmitter never builds bit-exact frames: it decides each attempt
// with an analytically equivalent per-slot error model, so campaigns
// covering months of virtual time stay fast. CRC16 is a real
// implementation; the BCSP transport frames with it.
package baseband

import "repro/internal/core"

// crcPoly is the CCITT generator x^16 + x^12 + x^5 + 1 used by the Bluetooth
// baseband payload CRC.
const crcPoly uint16 = 0x1021

// CRC16 computes the Bluetooth payload CRC over data, seeded with init
// (the spec seeds with the master's UAP in the high byte; the testbeds'
// default UAP of zero gives init 0).
func CRC16(init uint16, data []byte) uint16 {
	crc := init
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ crcPoly
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// AirBits reports the number of on-air payload bits for a packet of
// payloadLen user bytes of the given type (payload + CRC, FEC-expanded for
// DMx: each 10 information bits travel as a 15-bit codeword). It drives
// the per-slot exposure computation in the ARQ model.
func AirBits(pt core.PacketType, payloadLen int) int {
	bits := (payloadLen + 2) * 8
	if pt.FEC() {
		ncw := (bits + 9) / 10
		return ncw * 15
	}
	return bits
}
