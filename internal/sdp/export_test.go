package sdp

import "slices"

// Unregister removes a record.
func (s *Server) Unregister(handle uint32) {
	s.records = slices.DeleteFunc(s.records, func(r Record) bool { return r.Handle == handle })
}

// UUIDGN is the PAN Group Network service class UUID.
const UUIDGN uint16 = 0x1117
