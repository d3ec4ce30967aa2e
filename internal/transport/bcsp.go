package transport

import (
	"errors"
	"fmt"

	"repro/internal/baseband"
)

// BCSP frame layout (BlueCore Serial Protocol, CSR AN004):
//
//	octet 0: flags (bit7 reliable, bit6 CRC present) | seq (bits 3-5) | ack (bits 0-2)
//	octet 1: payload length low nibble (bits 4-7) | protocol channel id (bits 0-3)
//	octet 2: payload length high octet
//	octet 3: header checksum = two's complement of (octet0+octet1+octet2)
//	payload...
//	optional CRC-16 over header+payload
//
// Frames travel SLIP-framed between 0xC0 delimiters with 0xC0 -> 0xDB 0xDC
// and 0xDB -> 0xDB 0xDD escaping.

// BCSP protocol channel identifiers (the "parallel information flows" the
// paper mentions BCSP multiplexes over a single UART).
const (
	ChanHCICmd = 0x5
)

// Frame is one BCSP datagram.
type Frame struct {
	Reliable bool
	HasCRC   bool
	Seq      uint8 // 3-bit send sequence number
	Ack      uint8 // 3-bit acknowledgement number
	Channel  uint8 // 4-bit protocol id
	Payload  []byte
}

// SLIP special bytes.
const (
	slipEnd    = 0xC0
	slipEsc    = 0xDB
	slipEscEnd = 0xDC
	slipEscEsc = 0xDD
)

// maxBCSPPayload is the 12-bit payload length bound of the frame header.
const maxBCSPPayload = 0xFFF

// EncodeFrame serialises a frame, including SLIP delimiters.
func EncodeFrame(f Frame) ([]byte, error) {
	if f.Seq > 7 || f.Ack > 7 {
		return nil, fmt.Errorf("transport: seq/ack %d/%d exceed 3 bits", f.Seq, f.Ack)
	}
	if f.Channel > 15 {
		return nil, fmt.Errorf("transport: channel %d exceeds 4 bits", f.Channel)
	}
	if len(f.Payload) > maxBCSPPayload {
		return nil, fmt.Errorf("transport: payload %dB exceeds BCSP bound", len(f.Payload))
	}
	hdr := make([]byte, 4)
	if f.Reliable {
		hdr[0] |= 0x80
	}
	if f.HasCRC {
		hdr[0] |= 0x40
	}
	hdr[0] |= (f.Seq & 7) << 3
	hdr[0] |= f.Ack & 7
	hdr[1] = byte(len(f.Payload)&0xF)<<4 | f.Channel&0xF
	hdr[2] = byte(len(f.Payload) >> 4)
	hdr[3] = byte(-(int(hdr[0]) + int(hdr[1]) + int(hdr[2])))

	raw := append(hdr, f.Payload...)
	if f.HasCRC {
		crc := baseband.CRC16(0xFFFF, raw)
		raw = append(raw, byte(crc>>8), byte(crc))
	}

	out := make([]byte, 0, len(raw)+8)
	out = append(out, slipEnd)
	for _, b := range raw {
		switch b {
		case slipEnd:
			out = append(out, slipEsc, slipEscEnd)
		case slipEsc:
			out = append(out, slipEsc, slipEscEsc)
		default:
			out = append(out, b)
		}
	}
	out = append(out, slipEnd)
	return out, nil
}

// Frame decoding errors.
var (
	ErrBadFraming  = errors.New("transport: bad SLIP framing")
	ErrBadChecksum = errors.New("transport: BCSP header checksum mismatch")
	ErrBadCRC      = errors.New("transport: BCSP payload CRC mismatch")
	ErrShortFrame  = errors.New("transport: BCSP frame too short")
)

// DecodeFrame parses one SLIP-delimited frame produced by EncodeFrame.
func DecodeFrame(wire []byte) (Frame, error) {
	if len(wire) < 2 || wire[0] != slipEnd || wire[len(wire)-1] != slipEnd {
		return Frame{}, ErrBadFraming
	}
	raw := make([]byte, 0, len(wire)-2)
	for i := 1; i < len(wire)-1; i++ {
		b := wire[i]
		if b == slipEsc {
			i++
			if i >= len(wire)-1 {
				return Frame{}, ErrBadFraming
			}
			switch wire[i] {
			case slipEscEnd:
				raw = append(raw, slipEnd)
			case slipEscEsc:
				raw = append(raw, slipEsc)
			default:
				return Frame{}, ErrBadFraming
			}
			continue
		}
		raw = append(raw, b)
	}
	if len(raw) < 4 {
		return Frame{}, ErrShortFrame
	}
	if byte(int(raw[0])+int(raw[1])+int(raw[2])+int(raw[3])) != 0 {
		return Frame{}, ErrBadChecksum
	}
	f := Frame{
		Reliable: raw[0]&0x80 != 0,
		HasCRC:   raw[0]&0x40 != 0,
		Seq:      raw[0] >> 3 & 7,
		Ack:      raw[0] & 7,
		Channel:  raw[1] & 0xF,
	}
	plen := int(raw[1]>>4) | int(raw[2])<<4
	body := raw[4:]
	if f.HasCRC {
		if len(body) < plen+2 {
			return Frame{}, ErrShortFrame
		}
		crcWire := uint16(body[plen])<<8 | uint16(body[plen+1])
		if baseband.CRC16(0xFFFF, raw[:4+plen]) != crcWire {
			return Frame{}, ErrBadCRC
		}
		body = body[:plen]
	} else if len(body) < plen {
		return Frame{}, ErrShortFrame
	} else {
		body = body[:plen]
	}
	f.Payload = append([]byte(nil), body...)
	return f, nil
}

// LinkEvent is what the BCSP receiver reports to its observer.
type LinkEvent int

// Receiver events.
const (
	EvDelivered  LinkEvent = iota + 1 // in-order reliable payload delivered
	EvOutOfOrder                      // unexpected sequence number observed
	EvDuplicate                       // already-acknowledged frame re-seen
	EvCorrupt                         // frame failed checksum/CRC
)

// String names the event.
func (e LinkEvent) String() string {
	switch e {
	case EvDelivered:
		return "delivered"
	case EvOutOfOrder:
		return "out-of-order"
	case EvDuplicate:
		return "duplicate"
	case EvCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("LinkEvent(%d)", int(e))
	}
}

// Receiver is the receive half of a BCSP reliable link: it tracks the
// expected 3-bit sequence number and classifies arriving frames. The
// classification events feed the system log ("Out of order or missing BCSP
// packets").
type Receiver struct {
	expect uint8
}

// Accept processes one wire frame and returns the event classification.
func (r *Receiver) Accept(wire []byte) LinkEvent {
	f, err := DecodeFrame(wire)
	ev := EvCorrupt
	if err == nil {
		switch {
		case !f.Reliable:
			ev = EvDelivered // unreliable channel: no sequencing
		case f.Seq == r.expect:
			ev = EvDelivered
			r.expect = (r.expect + 1) & 7
		case ((r.expect - f.Seq) & 7) <= 3:
			// Behind the window: a retransmission of something acked.
			ev = EvDuplicate
		default:
			ev = EvOutOfOrder
		}
	}
	return ev
}
